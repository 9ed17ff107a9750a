"""
Class numbers from digit expansions
===================================

The first r = (q^d - 1)/(q - 1) digits of 1/P in a primitive base G of
degree >= d encode the divisor class numbers of every subfield of the
P-th cyclotomic function field.  This script computes them three ways
and checks the routes against each other.
"""

from carlitzdigits import (
    FieldSpec,
    build_context,
    canonical_primitive_lift,
    compute_report,
    digit_polynomials,
    h_from_char_sums,
    parse_poly,
    point_count_class_number,
    quadratic_class_number,
    subfield,
)

# -- 1. the generating polynomials --------------------------------------
# Over F_3 take P = T^3+2T+2 and the primitive base G = T^3+T+2.  The
# degree polynomial collects deg'(H_k); each unit character lambda of
# F_3^x twists the digit leading coefficients into a second polynomial.

spec = FieldSpec.from_order(3)
P = parse_poly(spec, "T^3+2*T+2")
G = parse_poly(spec, "T^3+T+2")
ctx = build_context(P, G)
dp = digit_polynomials(ctx)

print(f"P = {P}, G = {G}: N = {ctx.N}, r = {ctx.r}")
print(f"  digit degrees: {dp.degree_poly}")
desc = subfield(ctx, 2)
lam = [u for u in desc.unit_chars if not u.is_trivial()][0]
signs = [c.as_integer() for c in dp.twisted_poly(lam)]
print(f"  quadratic twist signs: {signs}")
print()

# -- 2. one class number, four routes -----------------------------------
# The quadratic subfield of the 26th cyclotomic function field over F_3.

report = compute_report(ctx, 2, verify_charsum=True, verify_pointcount=True)
print(f"quadratic subfield (l = 2): h = {report.h}")
print(f"  methods: {' and '.join(report.methods)}, agree = {report.agree}")
print(f"  signed digit route: {quadratic_class_number(P, G)}")
print(f"  point count route:  {point_count_class_number(P)}")
print()

# -- 3. the full field and its real subfield ----------------------------
# l = N gives the whole cyclotomic field; the plus part comes from the
# degree polynomial, the relative part from the twisted ones.

full = compute_report(ctx, 26, verify_charsum=True)
print(f"full field (l = 26): h+ = {full.h_plus}, h- = {full.h_minus}")
print(f"  h = {full.h}, agree = {full.agree}")
cs = h_from_char_sums(ctx, 26)
print(f"  character sums give ({cs.h_plus}, {cs.h_minus})")
# The point count takes any subfield within its bound: the real subfield
# of degree 13 has genus 6, its places counted from the splitting of primes.
real = compute_report(ctx, 13, verify_charsum=True, verify_pointcount=True)
print(f"real subfield (l = 13): h = {real.h}, point count route: "
      f"{point_count_class_number(P, 13)}, agree = {real.agree}")
print()

# -- 4. a small table ----------------------------------------------------
# Canonical primitive bases make the choice of G reproducible: G = g0 + P
# for the least primitive residue g0.  Tabulate all quadratic subfields
# for the monic irreducible quadratics over F_3.

print("q=3, d=2, l=2, canonical bases:")
from carlitzdigits.polyring import is_irreducible, monic_polys

for Q in monic_polys(spec, 2):
    if not is_irreducible(Q):
        continue
    base = canonical_primitive_lift(Q)
    rep = compute_report(build_context(Q, base), 2, verify_charsum=True)
    print(f"  P = {rep.P:12s} G = {rep.G:12s} h = {rep.h}  agree = {rep.agree}")
