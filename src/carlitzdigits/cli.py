"""Command line surface for digit expansions and class numbers.

Subcommands: expand, period, classnum, carlitz, verify-paper, sweep.
Exit codes: 0 success, 1 verification failure, 2 parse error,
3 hypothesis violation, 4 resource bound.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from itertools import islice

from .carlitz import carlitz_poly
from .chars import _require_monic, _require_subfield_degree, build_context
from .classnum import (
    CSV_COLUMNS,
    POINT_COUNT_BOUND,
    ClassNumberReport,
    _point_count_refusal,
    canonical_primitive_lift,
    compute_report,
    digit_degree_sum,
    digit_polynomials,
    full_degree_identity,
    full_twist_identity,
    h_from_char_sums,
    h_minus_from_digits,
    h_plus_from_digits,
    point_count_class_number,
    quadratic_class_number,
    window_degree_identity,
    window_twist_identity,
)
from .digits import (
    DigitExpansion,
    digit_closed_form,
    digit_expand,
    digit_period,
    digit_stream,
    twisted_digit_sum,
)
from .errors import (
    ExactnessError,
    HypothesisError,
    ParseError,
    ResourceLimitError,
)
from .ffq import FieldSpec, quadratic_character, unit_character
from .numutil import RHO_BUDGET, divisors, mobius, totient
from .polyring import Poly, _irreducibles, format_poly, monic_polys, parse_poly, poly_gcd

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_RESOURCE = 4

# classnum and sweep refuse a unit group order q^d - 1 above this.  The
# longest residue contexts it admits are (2, 19), r = 524287 walk steps, and
# (3, 12), r = 265720.  In a fresh process on a 2-core shared host, with the
# canonical lift of T^19+T^5+T^2+T+1 and of T^12+T^2+2, build_context took
# 1.09-1.58 and 0.43-0.64 s of CPU, the whole process 23 and 20 MB peak RSS.
SWEEP_ORDER_BOUND = 10**6

# A sweep builds one residue context of r = (q^d - 1)/(q - 1) walk steps
# for each monic irreducible P of degree d; sweeps of more steps in all are
# refused (_check_sweep_steps).  A step takes 1.5-2.1 us on a 2-core shared
# host (the two contexts above), so the walks of a sweep take at most about
# 2.1 s.
SWEEP_STEP_BOUND = 10**6

# A class number request for the degree-l subfield takes one norm from
# Q(zeta_t) for each t | l (every t | q^d - 1 in a sweep without --l), of
# degree phi(t) <= phi(l).  Requests with phi(l) above this are refused
# (_check_norm_degree).  One cycint.norm of a random +-1 vector in a fresh
# process on a 2-core shared host (its primes and chirps built on the way):
# phi 432 (t = 511) 0.13-0.14 s, phi 600 (t = 1023) 0.28-0.45 s, phi 708
# (t = 709) 0.34-0.35 s, phi 800 (t = 1025) 0.40-0.59 s, phi 1936
# (t = 2047) 2.7-3.0 s.  The character-sum oracle takes the same orbit's
# value as one classnum._orbit_product of a random +-1 window in
# Z[zeta_t], 14 products by cycint._mul: 0.71-0.98 s at t = 701 (phi 700)
# in five fresh processes, where norm took 0.24-0.33 s on the same vectors
# and host.  The oracle, not the digit norm, sets the bound.
NORM_DEGREE_BOUND = 700

# A request whose output takes more than this many coefficient slots in all
# is refused (_check_slots).  On a 2-core shared host:
# - rho_I of carlitz has coefficients c_i of degree q^i * (deg I - i),
#   i <= deg I.  Over F_2 the bound admits I = T^21.  In process, T^20
#   (2,097,151 slots) takes 0.35 s of CPU and 61 MB, T^21 0.6 s and 108 MB.
# - expand writes --terms digits of deg G slots each, one line per digit as
#   the division makes it.  With deg G = 1 and a degree-16 denominator over
#   F_2, 2^20 terms take 7.6 s of CPU and 19 MB peak RSS, 2^22 terms 29.6 s
#   and 18 MB: the time grows linearly and the memory stays flat.
OUTPUT_SLOT_BOUND = 2**22

GRAMMAR_HELP = """\
polynomial grammar (one grammar everywhere):
  terms c, T, c*T^k or T^k joined by '+', e.g. "T^3+2*T+2" ("2T" means 2*T);
  or an ascending coefficient list, e.g. "2,2,0,1" for the same polynomial.
  Over an extension field F_{p^a} each coefficient is a parenthesized list
  of F_p coordinates, e.g. "(1,2)*T^2+(0,1)".
"""

ORDER_BOUND_HELP = f"""\
The period is the order of G modulo the denominator (--P, --den or --M).
It divides the exponent of (F_q[T]/M)^x, read off the degrees of the
irreducible factors of M; a request whose exponent does not factor within
{RHO_BUDGET} steps of Pollard's rho is refused with exit code 4.
"""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _field_of(args) -> FieldSpec:
    modulus = None
    if getattr(args, "modulus", None):
        try:
            modulus = tuple(int(c) for c in args.modulus.split(","))
        except ValueError:
            raise ParseError(f"bad modulus coefficient list: {args.modulus!r}")
    return FieldSpec.from_order(args.q, modulus)


@contextlib.contextmanager
def _output(args):
    """The file named by --output, or stdout."""
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(args, text: str) -> None:
    with _output(args) as out:
        out.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _check_slots(slots: int, what: str, command: str) -> None:
    """Refuse an output of more than OUTPUT_SLOT_BOUND coefficient slots."""
    if slots > OUTPUT_SLOT_BOUND:
        raise ResourceLimitError(
            f"{what} exceed the {command} bound of {OUTPUT_SLOT_BOUND} slots"
        )


def _check_norm_degree(l: int, order: int, command: str) -> None:
    """Refuse a subfield degree l | order whose norms, of degree phi(t)
    for t | l, reach past NORM_DEGREE_BOUND.  An l not dividing order needs
    no norm: classnum refuses it, and sweep prints an empty table."""
    if order % l == 0 and totient(l) > NORM_DEGREE_BOUND:
        raise ResourceLimitError(
            f"l = {l} needs a norm of degree phi(l) = {totient(l)}, over the "
            f"{command} bound {NORM_DEGREE_BOUND}"
        )


def _irreducible_count(q: int, d: int) -> int:
    """The number (1/d) sum_{k | d} mu(d/k) q^k of monic irreducible
    polynomials of degree d over F_q (Gauss)."""
    return sum(mobius(d // k) * q**k for k in divisors(d)) // d


def _check_sweep_steps(q: int, d: int) -> None:
    """Refuse a sweep whose contexts take more than SWEEP_STEP_BOUND walk
    steps, r each for every monic irreducible P of degree d."""
    count = _irreducible_count(q, d)
    steps = count * ((q**d - 1) // (q - 1))
    if steps > SWEEP_STEP_BOUND:
        raise ResourceLimitError(
            f"{count} contexts of degree {d} take {steps} division steps, over the "
            f"sweep bound {SWEEP_STEP_BOUND}"
        )


# -- expand ------------------------------------------------------------

# stands in for the digits in the JSON layout of DigitExpansion, which
# cmd_expand writes around them
_DIGITS_MARK = "digits H_1..H_terms"


def cmd_expand(args) -> int:
    spec = _field_of(args)
    base = parse_poly(spec, args.G)
    _check_slots(args.terms * (len(base.ints) - 1), "the digits H_1..H_terms", "expand")
    num = parse_poly(spec, args.num)
    if args.P is not None:
        if args.den is not None:
            raise ParseError("give either --P or --den, not both")
        den = parse_poly(spec, args.P)
    elif args.den is not None:
        den = parse_poly(spec, args.den)
    else:
        raise ParseError("a denominator is required: pass --P or --den")
    h0, period, digits = digit_stream(num, den, base)
    digits = islice(digits, args.terms)
    with _output(args) as out:  # one line per digit, as the division yields it
        if args.format == "json":
            data = DigitExpansion(base, num, den, h0, (), period).to_json_dict()
            data["digits"] = [_DIGITS_MARK]
            head, tail = _json_text(data).split(json.dumps(_DIGITS_MARK))
            out.write(head)
            for k, digit in enumerate(digits):
                out.write((",\n    " if k else "") + json.dumps(format_poly(digit)))
            out.write(tail)
            return EXIT_OK
        out.write(
            f"base G = {format_poly(base)} over F_{spec.q}\n"
            f"numerator = {format_poly(num)}\n"
            f"denominator = {format_poly(den)}\n"
            f"H_0 = {format_poly(h0)}\n"
        )
        for k, digit in enumerate(digits, start=1):
            out.write(f"H_{k} = {format_poly(digit)}\n")
        out.write(f"period = {period if period is not None else 'none'}\n")
    return EXIT_OK


# -- period ------------------------------------------------------------

def cmd_period(args) -> int:
    spec = _field_of(args)
    modulus = parse_poly(spec, args.M)
    base = parse_poly(spec, args.G)
    value = digit_period(modulus, base)
    if args.format == "json":
        _emit(args, _json_text({
            "q": spec.q, "M": format_poly(modulus), "G": format_poly(base),
            "period": value,
        }))
    else:
        _emit(args, f"period = {value}\n")
    return EXIT_OK


# -- classnum ----------------------------------------------------------

def cmd_classnum(args) -> int:
    spec = _field_of(args)
    P = parse_poly(spec, args.P)
    # refusals that need no context come before the lift and the division
    _require_monic(P)
    order = spec.q ** (len(P.ints) - 1) - 1
    if order > SWEEP_ORDER_BOUND:
        raise ResourceLimitError(
            f"q^deg P - 1 = {order} exceeds the classnum bound {SWEEP_ORDER_BOUND}"
        )
    _check_norm_degree(args.l, order, "classnum")
    _require_subfield_degree(args.l, order)
    why = "pointcount" in args.verify and _point_count_refusal(spec.q, len(P.ints) - 1, args.l)
    if why:
        raise ResourceLimitError(why)
    G = canonical_primitive_lift(P) if args.G is None else parse_poly(spec, args.G)
    ctx = build_context(P, G)
    report = compute_report(
        ctx, args.l,
        verify_charsum="charsum" in args.verify,
        verify_pointcount="pointcount" in args.verify,
    )
    data = report.to_json_dict()
    if args.part == "plus":
        data["h_minus"] = None
        data["h"] = None
    elif args.part == "minus":
        data["h_plus"] = None
        data["h"] = None
    if args.format == "json":
        _emit(args, _json_text(data))
    else:
        lines = [
            f"q = {data['q']}, d = {data['d']}, P = {data['P']}, "
            f"G = {data['G']}, e = {data['e']}, r = {data['r']}",
            f"l = {data['l']}, m = {data['m']}, n = {data['n']}",
        ]
        if data["h_plus"] is not None:
            lines.append(f"h_plus = {data['h_plus']}")
        if data["h_minus"] is not None:
            lines.append(f"h_minus = {data['h_minus']}")
        if data["h"] is not None:
            lines.append(f"h = {data['h']}")
        lines.append(f"methods = {'+'.join(report.methods)}")
        if len(report.methods) > 1:
            lines.append(f"agree = {str(report.agree).lower()}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.agree else EXIT_VERIFY


# -- carlitz -----------------------------------------------------------

def cmd_carlitz(args) -> int:
    spec = _field_of(args)
    operand = parse_poly(spec, args.I)
    n = len(operand.ints) - 1
    slots = 0
    for i in range(n + 1):  # stops within a few terms for a huge deg I
        slots += spec.q**i * (n - i) + 1
        _check_slots(slots, "the coefficients of rho_I", "carlitz")
    rho = carlitz_poly(operand)
    if args.format == "json":
        _emit(args, _json_text({
            "q": spec.q,
            "I": format_poly(operand),
            "coefficients": [format_poly(c) for c in rho.coeffs],
            "x_degree": rho.x_degree() if rho.coeffs else 0,
        }))
    else:
        _emit(args, f"rho(x) = {rho}\n")
    return EXIT_OK


# -- verify-paper ------------------------------------------------------

class _Checks:
    """Accumulates named pass/fail checks grouped under titles."""

    def __init__(self):
        self.groups = []

    def group(self, title: str) -> None:
        self.groups.append((title, []))

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.groups[-1][1].append((name, bool(ok), detail))

    def expect(self, name: str, got, want) -> None:
        self.add(name, got == want, f"expected {want!r}, got {got!r}")

    def totals(self):
        total = sum(len(checks) for _, checks in self.groups)
        failed = sum(1 for _, checks in self.groups for _, ok, _ in checks if not ok)
        return total, failed


def _poly_texts(polys) -> tuple[str, ...]:
    return tuple(format_poly(f) for f in polys)


def _holds(identity, ctx, js) -> bool:
    for j in js:
        lhs, rhs = identity(ctx, ctx.char(j))
        if lhs != rhs:
            return False
    return True


def _check_identities(ck: _Checks, ctx, label: str) -> None:
    q = ctx.spec.q
    even = [j for j in range(ctx.N) if j % max(q - 1, 1) == 0]
    ck.add(f"{label}: windowed degree identity for {len(even)} scalar-trivial characters",
           _holds(window_degree_identity, ctx, even))
    ck.add(f"{label}: full degree identity for {len(even) - 1} nontrivial characters",
           _holds(full_degree_identity, ctx, [j for j in even if j]))
    ck.add(f"{label}: windowed twist identity for all {ctx.N} characters",
           _holds(window_twist_identity, ctx, range(ctx.N)))
    ck.add(f"{label}: full twist identity for all {ctx.N} characters",
           _holds(full_twist_identity, ctx, range(ctx.N)))
    dp = digit_polynomials(ctx)
    ck.expect(f"{label}: degree sum closed form",
              sum(dp.degree_poly), digit_degree_sum(q, ctx.d, ctx.e))
    s0 = sum(q**i for i in range(ctx.d))
    lam0 = unit_character(ctx.spec, 0, ctx.unit_gen)
    support = sum(1 for e in dp.twisted_exponents(lam0) if e is not None)
    ck.expect(f"{label}: trivial-twist value at 1 counts the monic residues", support, s0)
    # the monic parts of G^k, k < r, against the monic polynomials, by degree
    got = sorted((len(f.ints) - 1, f.ints) for f in ctx.dlog)
    want = sorted((s, f.ints) for s in range(ctx.d) for f in monic_polys(ctx.spec, s))
    ck.add(f"{label}: power-table classes match monic polynomials degree by degree",
           got == want)


def run_verification(seed: int) -> _Checks:
    ck = _Checks()
    spec3 = FieldSpec.from_order(3)
    spec2 = FieldSpec.from_order(2)
    ctx1 = build_context(parse_poly(spec3, "T^2+1"), parse_poly(spec3, "T^2+T+2"))
    ctx2 = build_context(parse_poly(spec2, "T^3+T+1"), parse_poly(spec2, "T^3"))
    ctx3 = build_context(parse_poly(spec3, "T^3+2*T+2"), parse_poly(spec3, "T^3+T+2"))

    ck.group("[1] quadratic field data over F_3 (P = T^2+1, G = T^2+T+2)")
    dp1 = digit_polynomials(ctx1)
    ck.expect("digits H_1..H_4", _poly_texts(dp1.digits), ("1", "T+2", "2*T+2", "2*T"))
    ck.expect("degree coefficients", dp1.degree_poly, (0, 1, 1, 1))
    ck.expect("plus part of the full field (l = 8) = 1", h_plus_from_digits(ctx1, 8), 1)
    ck.expect("quadratic subfield class number = 1",
              quadratic_class_number(ctx1.P, ctx1.G), 1)
    ck.expect("point count route = 1", point_count_class_number(ctx1.P), 1)
    cs1 = h_from_char_sums(ctx1, 8)
    ck.expect("character sum route agrees (l = 8)",
              (cs1.h_plus, cs1.h_minus),
              (1, h_minus_from_digits(ctx1, 8)))

    ck.group("[2] full cyclotomic field over F_2 (P = T^3+T+1, G = T^3)")
    dp2 = digit_polynomials(ctx2)
    ck.expect("digits H_1..H_7", _poly_texts(dp2.digits),
              ("1", "T+1", "T^2", "T^2+1", "T^2+T", "T", "T^2+T+1"))
    ck.expect("degree coefficients", dp2.degree_poly, (0, 1, 2, 2, 2, 1, 2))
    ck.expect("plus part (l = 7) = 71", h_plus_from_digits(ctx2, 7), 71)
    ck.expect("character sum route = 71", h_from_char_sums(ctx2, 7).h_plus, 71)

    ck.group("[3] cubic field over F_3 (P = T^3+2T+2, G = T^3+T+2)")
    dp3 = digit_polynomials(ctx3)
    ck.expect("digits H_1..H_13", _poly_texts(dp3.digits),
              ("1", "2*T", "T^2+2", "2*T+2", "T^2+T+2", "2*T^2+2*T", "T^2+2*T",
               "T^2+T+1", "2*T^2", "2*T+1", "T^2+2*T+2", "T^2+2*T+1", "T^2+1"))
    ck.expect("leading sign of the base", quadratic_character(ctx3.G.leading_coeff()), 1)
    eps = tuple(quadratic_character(h.leading_coeff()) for h in dp3.digits)
    ck.expect("digit leading signs",
              eps, (1, -1, 1, -1, 1, -1, 1, 1, -1, -1, 1, 1, 1))
    lam = unit_character(spec3, 1, ctx3.unit_gen)
    twisted = tuple(c.as_integer() for c in dp3.twisted_poly(lam))
    ck.expect("twisted coefficients match the digit signs", twisted, eps)
    ck.expect("relative part of the full field (l = 26) = 774144 = 2^12*3^3*7",
              h_minus_from_digits(ctx3, 26), 774144)
    ck.expect("relative part of the quadratic subfield (l = 2) = 7",
              h_minus_from_digits(ctx3, 2), 7)
    ck.expect("alternating sign route = 7", quadratic_class_number(ctx3.P, ctx3.G), 7)
    ck.expect("point count route = 7", point_count_class_number(ctx3.P), 7)
    cs3 = h_from_char_sums(ctx3, 26)
    ck.expect("character sum route agrees (l = 26)",
              (cs3.h_plus, cs3.h_minus),
              (h_plus_from_digits(ctx3, 26), 774144))

    ck.group("[4] structural identities on all three contexts")
    for label, ctx in (("F_3 quadratic", ctx1), ("F_2 cubic", ctx2), ("F_3 cubic", ctx3)):
        _check_identities(ck, ctx, label)

    ck.group("[5] vanishing digit sums and seeded random agreement")
    for label, ctx in (("F_3 quadratic", ctx1), ("F_2 cubic", ctx2), ("F_3 cubic", ctx3)):
        total = twisted_digit_sum(ctx.P, ctx.G, ctx.spec.one)
        ck.add(f"{label}: plain digit sum over a period vanishes", total.is_zero())
    s_pg = twisted_digit_sum(ctx3.P, ctx3.G, -spec3.one)
    ck.add("F_3 cubic: alternating digit sum vanishes", s_pg.is_zero())
    tiny = twisted_digit_sum(parse_poly(spec2, "T"), parse_poly(spec2, "T+1"), spec2.one)
    ck.expect("F_2 counterexample outside the gcd hypothesis: raw sum",
              format_poly(tiny), "1")
    import random  # read only here and by the two helpers below

    rng = random.Random(seed)
    agree = 0
    cases = 25
    for _ in range(cases):
        spec = FieldSpec.from_order(rng.choice((2, 3, 5)))
        M = _random_poly(rng, spec, rng.randint(1, 3), monic=True)
        G = _random_coprime(rng, spec, M)
        count = min(2 * digit_period(M, G), 12)
        expansion = digit_expand(Poly.one(spec), M, G, count)
        if all(expansion.digits[k - 1] == digit_closed_form(M, G, k)
               for k in range(1, count + 1)):
            agree += 1
    ck.expect(f"random closed form vs long division ({cases} cases)", agree, cases)
    ok_periods = 0
    cases2 = 10
    for _ in range(cases2):
        spec = FieldSpec.from_order(rng.choice((2, 3)))
        M = _random_poly(rng, spec, rng.randint(1, 3), monic=True)
        G = _random_coprime(rng, spec, M)
        g = digit_period(M, G)
        cur = Poly.one(spec)
        brute = None
        for k in range(1, spec.q ** (len(M.ints) - 1) + 1):
            cur = (cur * G) % M
            if cur == Poly.one(spec) % M:
                brute = k
                break
        if brute == g:
            ok_periods += 1
    ck.expect(f"random period equals multiplicative order ({cases2} cases)",
              ok_periods, cases2)
    return ck


def _random_poly(rng, spec: FieldSpec, degree: int, monic: bool = False) -> Poly:
    coeffs = [spec.from_index(rng.randrange(spec.q)) for _ in range(degree)]
    if monic:
        coeffs.append(spec.one)
    else:
        coeffs.append(spec.from_index(rng.randrange(1, spec.q)))
    return Poly(spec, tuple(coeffs))


def _random_coprime(rng, spec: FieldSpec, M: Poly) -> Poly:
    while True:
        G = _random_poly(rng, spec, rng.randint(1, 3), monic=not rng.randrange(2))
        if poly_gcd(G, M).degree() == 0:
            return G


def cmd_verify_paper(args) -> int:
    ck = run_verification(args.seed)
    total, failed = ck.totals()
    if args.format == "json":
        payload = {
            "seed": args.seed,
            "groups": [
                {
                    "title": title,
                    "checks": [
                        {"name": name, "ok": ok, "detail": detail if not ok else None}
                        for name, ok, detail in checks
                    ],
                }
                for title, checks in ck.groups
            ],
            "checks": total,
            "failed": failed,
            "pass": failed == 0,
        }
        _emit(args, _json_text(payload))
    else:
        lines = [f"pinned-value verification (seed {args.seed})"]
        for title, checks in ck.groups:
            lines.append("")
            lines.append(title)
            for name, ok, detail in checks:
                if ok:
                    lines.append(f"  ok   {name}")
                else:
                    lines.append(f"  FAIL {name}: {detail}")
        lines.append("")
        if failed:
            lines.append(f"FAIL: {failed} of {total} checks failed in {len(ck.groups)} groups")
        else:
            lines.append(f"PASS: {total} checks in {len(ck.groups)} groups")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# -- sweep -------------------------------------------------------------

def _sweep_job(job) -> list[ClassNumberReport]:
    P, wanted_l, verify = job
    ctx = build_context(P, canonical_primitive_lift(P))
    reports = []
    for l in divisors(ctx.N):
        if wanted_l in (None, l):
            pointcount = "pointcount" in verify and not _point_count_refusal(P.spec.q, ctx.d, l)
            reports.append(compute_report(ctx, l, "charsum" in verify, pointcount))
    return reports


def cmd_sweep(args) -> int:
    spec = _field_of(args)
    order = spec.q**args.d - 1
    if order > SWEEP_ORDER_BOUND:
        raise ResourceLimitError(
            f"q^d - 1 = {order} exceeds the sweep bound {SWEEP_ORDER_BOUND}"
        )
    _check_norm_degree(order if args.l is None else args.l, order, "sweep")
    jobs = []
    # an l not dividing q^d - 1 is the degree of no subfield: no P gives a row
    if args.l is None or order % args.l == 0:
        _check_sweep_steps(spec.q, args.d)
        jobs = [(P, args.l, args.verify) for P in _irreducibles(spec, args.d)]
    workers = min(args.parallel, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # 15-22 ms to import, for this path only
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_p = list(pool.map(_sweep_job, jobs))
    else:
        per_p = [_sweep_job(job) for job in jobs]
    reports = [report for chunk in per_p for report in chunk]
    table = [report.csv_row() for report in reports]
    if args.format == "json":
        _emit(args, _json_text([report.to_json_dict() for report in reports]))
    elif args.format == "csv":
        import csv  # read only by this writer

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(table)
        _emit(args, buf.getvalue())
    else:
        header = list(CSV_COLUMNS)
        widths = [len(h) for h in header]
        str_table = [[str(cell) for cell in row] for row in table]
        for row in str_table:
            widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        for row in str_table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if all(report.agree for report in reports) else EXIT_VERIFY


# -- parser ------------------------------------------------------------

def _add_field_args(sub) -> None:
    sub.add_argument("--q", type=int, required=True,
                     help="field size, a prime power")
    sub.add_argument("--modulus", default=None,
                     help="comma list of F_p coefficients for the field modulus "
                          "(extension fields without a built-in modulus)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carlitzdigits",
        description="Digit expansions of 1/P in a polynomial base and the "
                    "divisor class numbers they encode.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_expand = subs.add_parser(
        "expand", help="digit expansion of a rational function in base G",
        description=ORDER_BOUND_HELP
        + f"Requests for more than {OUTPUT_SLOT_BOUND} digit slots, --terms times deg G,\n"
          "are refused with exit code 4.\n",
        epilog=GRAMMAR_HELP, formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_field_args(p_expand)
    p_expand.add_argument("--G", required=True, help="base polynomial, deg >= 1")
    p_expand.add_argument("--P", default=None,
                          help="expand 1/P (shorthand for --num 1 --den P)")
    p_expand.add_argument("--num", default="1", help="numerator (default 1)")
    p_expand.add_argument("--den", default=None, help="denominator")
    p_expand.add_argument("--terms", type=_positive_int, default=10,
                          help="number of digits H_1..H_terms (default 10)")
    p_expand.add_argument("--format", choices=("text", "json"), default="text")
    p_expand.add_argument("--output", default=None, help="write to this file")
    p_expand.set_defaults(func=cmd_expand)

    p_period = subs.add_parser(
        "period", help="period of the digit expansion of 1/M in base G",
        description=ORDER_BOUND_HELP,
        epilog=GRAMMAR_HELP, formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_field_args(p_period)
    p_period.add_argument("--M", required=True, help="modulus polynomial")
    p_period.add_argument("--G", required=True, help="base polynomial")
    p_period.add_argument("--format", choices=("text", "json"), default="text")
    p_period.add_argument("--output", default=None)
    p_period.set_defaults(func=cmd_period)

    p_class = subs.add_parser(
        "classnum", help="divisor class number of a subfield of the P-th "
                         "cyclotomic function field",
        description=f"Requests whose group order q^deg P - 1 exceeds {SWEEP_ORDER_BOUND},\n"
                    f"or whose l has phi(l) above {NORM_DEGREE_BOUND} (the largest degree of\n"
                    "the norms from Q(zeta_t), t | l, that the class numbers take),\n"
                    "are refused with exit code 4, as is a --verify pointcount of genus g\n"
                    f"with sum_(f <= g) q^f above {POINT_COUNT_BOUND} (the polynomials it sieves).",
        epilog=GRAMMAR_HELP, formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_field_args(p_class)
    p_class.add_argument("--P", required=True, help="monic irreducible polynomial")
    p_class.add_argument("--G", default=None,
                         help="primitive base mod P (default: canonical lift)")
    p_class.add_argument("--l", type=_positive_int, required=True,
                         help="subfield degree, a divisor of q^d - 1")
    p_class.add_argument("--part", choices=("plus", "minus", "both"), default="both")
    p_class.add_argument("--verify", action="append", default=[],
                         choices=("charsum", "pointcount"),
                         help="cross-check against an independent route (repeatable)")
    p_class.add_argument("--format", choices=("text", "json"), default="text")
    p_class.add_argument("--output", default=None)
    p_class.set_defaults(func=cmd_classnum)

    p_car = subs.add_parser(
        "carlitz", help="the additive polynomial realizing the module action of I",
        description="rho_I = sum_{i <= deg I} c_i x^(q^i) with deg c_i = q^i (deg I - i).\n"
                    f"Requests whose coefficients take more than {OUTPUT_SLOT_BOUND} slots,\n"
                    "sum_{i <= deg I} (q^i (deg I - i) + 1), are refused with exit code 4.",
        epilog=GRAMMAR_HELP, formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_field_args(p_car)
    p_car.add_argument("--I", required=True, help="acting polynomial")
    p_car.add_argument("--format", choices=("text", "json"), default="text")
    p_car.add_argument("--output", default=None)
    p_car.set_defaults(func=cmd_carlitz)

    p_verify = subs.add_parser(
        "verify-paper", help="run every pinned reference value and identity")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for the randomized agreement checks (default 0)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(func=cmd_verify_paper)

    p_sweep = subs.add_parser(
        "sweep", help="tabulate class numbers over all monic irreducible P of "
                      "degree d with the canonical base",
        description=f"Sweeps whose group order q^d - 1 exceeds {SWEEP_ORDER_BOUND}, or that\n"
                    f"need a norm from Q(zeta_t) of degree phi(t) above {NORM_DEGREE_BOUND}\n"
                    "for some t | l (t | q^d - 1 without --l), or whose residue contexts take\n"
                    f"more than {SWEEP_STEP_BOUND} division steps in all ((q^d - 1)/(q - 1)\n"
                    "for each monic irreducible P of degree d), are refused with exit code 4.\n"
                    "--verify pointcount skips a row of genus g with sum_(f <= g) q^f above\n"
                    f"{POINT_COUNT_BOUND}, which classnum refuses with exit code 4.",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_field_args(p_sweep)
    p_sweep.add_argument("--d", type=_positive_int, required=True,
                         help="degree of the modulus polynomials")
    p_sweep.add_argument("--l", type=_positive_int, default=None,
                         help="single subfield degree (default: all divisors of q^d - 1)")
    p_sweep.add_argument("--verify", action="append", default=[],
                         choices=("charsum", "pointcount"))
    p_sweep.add_argument("--parallel", type=_positive_int, default=1,
                         help="worker processes (default 1); at most one per table "
                              "and per CPU are started")
    p_sweep.add_argument("--format", choices=("text", "json", "csv"), default="csv")
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built on the first call and reused: parsing
    does not change it."""
    return build_parser()


# Exit code of each refusal, the first matching type winning: ParseError
# and HypothesisError (PrimitivityError among them) are ValueErrors.
_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    HypothesisError: EXIT_HYPOTHESIS,
    ResourceLimitError: EXIT_RESOURCE,
    ExactnessError: EXIT_VERIFY,
    ZeroDivisionError: EXIT_HYPOTHESIS,
    ValueError: EXIT_PARSE,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
