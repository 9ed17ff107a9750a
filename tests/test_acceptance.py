"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS line (visible with -s) and enforcing its runtime bound."""

import time

import pytest

import test_chars
import test_classnum
import test_cycint
import test_digits
from carlitzdigits import classnum
from carlitzdigits.chars import build_context, subfield
from carlitzdigits.classnum import (
    canonical_primitive_lift,
    compute_report,
    digit_polynomials,
    h_minus_from_digits,
    h_plus_from_digits,
    point_count_class_number,
    quadratic_class_number,
)
from carlitzdigits.cycint import CycloInt, root_of_unity
from carlitzdigits.errors import ExactnessError
from carlitzdigits.ffq import FieldSpec, quadratic_character
from carlitzdigits.polyring import format_poly, parse_poly

from conftest import EX1, EX2, EX3, all_irreducibles, run_cli


def build(example):
    spec = FieldSpec.from_order(example["q"])
    P = parse_poly(spec, example["P"])
    G = parse_poly(spec, example["G"])
    return P, G, build_context(P, G)


def test_criterion_1_quadratic_example():
    start = time.monotonic()
    P, G, ctx = build(EX1)
    dp = digit_polynomials(ctx)
    assert [format_poly(h) for h in dp.digits] == ["1", "T+2", "2*T+2", "2*T"]
    assert quadratic_class_number(P, G) == 1  # d even branch
    assert h_plus_from_digits(ctx, 8) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: first reference example reproduced in {elapsed:.3f}s")


def test_criterion_2_binary_example():
    start = time.monotonic()
    P, G, ctx = build(EX2)
    dp = digit_polynomials(ctx)
    assert [format_poly(h) for h in dp.digits] == [
        "1", "T+1", "T^2", "T^2+1", "T^2+T", "T", "T^2+T+1",
    ]
    assert dp.degree_poly == (0, 1, 2, 2, 2, 1, 2)
    assert h_plus_from_digits(ctx, 7) == 71
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: second reference example reproduced in {elapsed:.3f}s")


def test_criterion_3_cubic_example():
    start = time.monotonic()
    P, G, ctx = build(EX3)
    dp = digit_polynomials(ctx)
    assert [format_poly(h) for h in dp.digits] == list(EX3["digits"])
    assert quadratic_character(G.leading_coeff()) == 1  # eta
    assert quadratic_class_number(P, G) == 7  # d odd branch
    desc = subfield(ctx, 2)
    lam = [u for u in desc.unit_chars if not u.is_trivial()][0]
    signs = [c.as_integer() for c in dp.twisted_poly(lam)]
    assert signs == [1, -1, 1, -1, 1, -1, 1, 1, -1, -1, 1, 1, 1]
    assert h_minus_from_digits(ctx, 26) == 774144 == 2**12 * 3**3 * 7
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 3: third reference example reproduced in {elapsed:.3f}s")


def test_criterion_4_route_agreement_sweep():
    start = time.monotonic()
    cases = 0
    for q, d in ((2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        spec = FieldSpec.from_order(q)
        for P in all_irreducibles(spec, d):
            G = canonical_primitive_lift(P)
            ctx = build_context(P, G)
            for l in range(1, ctx.N + 1):
                if ctx.N % l:
                    continue
                report = compute_report(ctx, l, verify_charsum=True)
                assert report.agree, (q, d, format_poly(P), l)
                cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 4: digit and character sum routes agree on "
          f"{cases} subfields in {elapsed:.1f}s")


def test_criterion_5_point_count_cross_check():
    start = time.monotonic()
    cases = 0
    for q in (3, 5):
        spec = FieldSpec.from_order(q)
        for P in all_irreducibles(spec, 3):
            G = canonical_primitive_lift(P)
            assert quadratic_class_number(P, G) == point_count_class_number(P)
            cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 5: signed digit route matches point counting on "
          f"{cases} cubics in {elapsed:.1f}s")


def test_criterion_6_property_suites(ctx_pool):
    # each suite runs at least 100 randomized cases under a fixed seed
    test_digits.test_closed_form_matches_division()
    test_digits.test_period_matches_brute_order()
    test_digits.test_rudnick_and_twisted_sums()
    test_classnum.test_degree_sum_matches_digits(ctx_pool)
    test_classnum.test_identities_on_random_contexts(ctx_pool)
    test_chars.test_monic_reps_partition(ctx_pool)
    test_cycint.test_geometric_sum_vanishes()
    test_cycint.test_inverse_roots()
    test_classnum.test_resultant_route_equals_product_route(ctx_pool)
    # negative controls: corrupted digit conventions must be caught
    spec2 = FieldSpec.from_order(2)
    ctx_small = build_context(parse_poly(spec2, "T^3+T+1"), parse_poly(spec2, "T"))
    test_classnum.test_degree_corruption_breaks_identity(ctx_small)
    _, _, ctx1 = build(EX1)
    test_classnum.test_constant_corruption_breaks_h_plus(ctx1)
    print("\nPASS criterion 6: property suites and negative controls")


def test_criterion_7_exactness_guard():
    # every class number in criteria 1-5 passes through the float guard of
    # its orbits and the exact integer collapse; recompute the pinned ones
    # here so a silent weakening of the guard cannot hide
    _, _, ctx1 = build(EX1)
    _, _, ctx2 = build(EX2)
    _, _, ctx3 = build(EX3)
    assert h_plus_from_digits(ctx1, 8) == 1
    assert h_plus_from_digits(ctx2, 7) == 71
    assert h_minus_from_digits(ctx3, 26) == 774144
    # the guard must actually reject a wrong exact value: zeta_8 has norm 1
    classnum._orbit_guard(8, [0, 1, 0, 0, 0, 0, 0, 0], 1, "control")
    with pytest.raises(ExactnessError):
        classnum._orbit_guard(8, [0, 1, 0, 0, 0, 0, 0, 0], 2, "control")
    # and a non-integer can never collapse silently
    with pytest.raises(ExactnessError):
        classnum._collapse(root_of_unity(8, 1), "control")
    assert classnum._collapse(CycloInt.from_int(8, -5), "control") == -5
    print("\nPASS criterion 7: float guard and integer collapse guard")


def test_criterion_8_determinism():
    first = run_cli("verify-paper")
    second = run_cli("verify-paper")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    sweep_args = ("sweep", "--q", "3", "--d", "2", "--verify", "charsum")
    s1 = run_cli(*sweep_args)
    s2 = run_cli(*sweep_args)
    assert s1.returncode == s2.returncode == 0
    assert s1.stdout == s2.stdout
    print("\nPASS criterion 8: verify-paper and sweep output is byte-identical")
