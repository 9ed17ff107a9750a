"""Command line surface for digit expansions and class numbers.

Subcommands: expand, period, classnum, carlitz, verify-paper, sweep.
Exit codes: 0 success, 1 verification failure, 2 parse error,
3 hypothesis violation, 4 resource bound.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor

from .carlitz import carlitz_poly
from .chars import build_context
from .classnum import (
    CSV_COLUMNS,
    ClassNumberReport,
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
    ORDER_STEP_BOUND,
    digit_closed_form,
    digit_expand,
    digit_period,
    twisted_digit_sum,
)
from .errors import (
    ExactnessError,
    HypothesisError,
    ParseError,
    ResourceLimitError,
)
from .ffq import FieldSpec, quadratic_character, unit_character
from .numutil import divisors
from .polyring import Poly, format_poly, is_irreducible, monic_polys, parse_poly, poly_gcd

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_RESOURCE = 4

SWEEP_ORDER_BOUND = 10**6

# rho_I has coefficients c_i of degree q^i * (deg I - i), i <= deg I; past
# this many coefficient slots in all, the request is refused.  Over F_2 it
# admits I = T^21: T^20 (2,097,151 slots) takes 0.35 s of CPU and 73 MB peak
# RSS, T^21 0.64 s and 145 MB, on a 2-core shared host.
CARLITZ_SLOT_BOUND = 2**22

GRAMMAR_HELP = """\
polynomial grammar (one grammar everywhere):
  terms c, T, c*T^k or T^k joined by '+', e.g. "T^3+2*T+2" ("2T" means 2*T);
  or an ascending coefficient list, e.g. "2,2,0,1" for the same polynomial.
  Over an extension field F_{p^a} each coefficient is a parenthesized list
  of F_p coordinates, e.g. "(1,2)*T^2+(0,1)".
"""

ORDER_BOUND_HELP = f"""\
The period is the order of G modulo the denominator (--P, --den or --M).
For a reducible one it is found by stepping powers of G; past {ORDER_STEP_BOUND}
steps the request is refused with exit code 4.
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


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# -- expand ------------------------------------------------------------

def cmd_expand(args) -> int:
    spec = _field_of(args)
    base = parse_poly(spec, args.G)
    num = parse_poly(spec, args.num)
    if args.P is not None:
        if args.den is not None:
            raise ParseError("give either --P or --den, not both")
        den = parse_poly(spec, args.P)
    elif args.den is not None:
        den = parse_poly(spec, args.den)
    else:
        raise ParseError("a denominator is required: pass --P or --den")
    expansion = digit_expand(num, den, base, args.terms)
    if args.format == "json":
        _emit(args, _json_text(expansion.to_json_dict()))
        return EXIT_OK
    lines = [
        f"base G = {format_poly(base)} over F_{spec.q}",
        f"numerator = {format_poly(num)}",
        f"denominator = {format_poly(den)}",
        f"H_0 = {format_poly(expansion.h0)}",
    ]
    for k, digit in enumerate(expansion.digits, start=1):
        lines.append(f"H_{k} = {format_poly(digit)}")
    period = expansion.period if expansion.period is not None else "none"
    lines.append(f"period = {period}")
    _emit(args, "\n".join(lines) + "\n")
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
    order = spec.q ** (len(P.ints) - 1) - 1
    if order > SWEEP_ORDER_BOUND:
        raise ResourceLimitError(
            f"q^deg P - 1 = {order} exceeds the classnum bound {SWEEP_ORDER_BOUND}"
        )
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
        if slots > CARLITZ_SLOT_BOUND:
            raise ResourceLimitError(
                f"the coefficients of rho_I exceed the carlitz bound of "
                f"{CARLITZ_SLOT_BOUND} slots"
            )
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
    # multiset equality: classes [G_k], k < r, by degree vs monic polynomials
    ok_multiset = True
    buckets: dict[int, list] = {s: [] for s in range(ctx.d)}
    for k in range(ctx.r):
        gk = ctx.powers[k]
        buckets[len(gk.ints) - 1].append(gk.monic())
    for s in range(ctx.d):
        got = sorted(f.ints for f in buckets[s])
        want = sorted(f.ints for f in monic_polys(ctx.spec, s))
        if got != want:
            ok_multiset = False
    ck.add(f"{label}: power-table classes match monic polynomials degree by degree",
           ok_multiset)


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


def _random_poly(rng: random.Random, spec: FieldSpec, degree: int, monic: bool = False) -> Poly:
    coeffs = [spec.from_index(rng.randrange(spec.q)) for _ in range(degree)]
    if monic:
        coeffs.append(spec.one)
    else:
        coeffs.append(spec.from_index(rng.randrange(1, spec.q)))
    return Poly(spec, tuple(coeffs))


def _random_coprime(rng: random.Random, spec: FieldSpec, M: Poly) -> Poly:
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

def _sweep_job(job) -> list[dict]:
    q, modulus, p_text, wanted_l, verify_charsum, verify_pointcount = job
    spec = FieldSpec.from_order(q, modulus)
    P = parse_poly(spec, p_text)
    G = canonical_primitive_lift(P)
    ctx = build_context(P, G)
    rows = []
    ls = [l for l in divisors(ctx.N) if wanted_l is None or l == wanted_l]
    for l in ls:
        use_pc = (verify_pointcount and l == 2 and q % 2 == 1
                  and 2 <= ctx.d <= 5)
        report = compute_report(
            ctx, l, verify_charsum=verify_charsum, verify_pointcount=use_pc
        )
        rows.append(report.to_json_dict())
    return rows


def cmd_sweep(args) -> int:
    spec = _field_of(args)
    if spec.q ** args.d - 1 > SWEEP_ORDER_BOUND:
        raise ResourceLimitError(
            f"q^d - 1 = {spec.q ** args.d - 1} exceeds the sweep bound {SWEEP_ORDER_BOUND}"
        )
    jobs = []
    for P in monic_polys(spec, args.d):
        if is_irreducible(P):
            jobs.append((
                args.q, spec.modulus, format_poly(P), args.l,
                "charsum" in args.verify, "pointcount" in args.verify,
            ))
    if args.parallel > 1:
        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            per_p = list(pool.map(_sweep_job, jobs))
    else:
        per_p = [_sweep_job(job) for job in jobs]
    rows = [row for chunk in per_p for row in chunk]
    all_agree = all(row["agree"] for row in rows)
    table = [ClassNumberReport.from_json_dict(row).csv_row() for row in rows]
    if args.format == "json":
        _emit(args, _json_text(rows))
    elif args.format == "csv":
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
    return EXIT_OK if all_agree else EXIT_VERIFY


# -- parser ------------------------------------------------------------

def _add_field_args(sub, need_modulus: bool = True) -> None:
    sub.add_argument("--q", type=int, required=True,
                     help="field size, a prime power")
    if need_modulus:
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
        description=ORDER_BOUND_HELP,
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
        description=f"Requests whose group order q^deg P - 1 exceeds {SWEEP_ORDER_BOUND}\n"
                    "are refused with exit code 4.",
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
                    f"Requests whose coefficients take more than {CARLITZ_SLOT_BOUND} slots,\n"
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
                      "degree d with the canonical base")
    _add_field_args(p_sweep)
    p_sweep.add_argument("--d", type=_positive_int, required=True,
                         help="degree of the modulus polynomials")
    p_sweep.add_argument("--l", type=_positive_int, default=None,
                         help="single subfield degree (default: all divisors of q^d - 1)")
    p_sweep.add_argument("--verify", action="append", default=[],
                         choices=("charsum", "pointcount"))
    p_sweep.add_argument("--parallel", type=_positive_int, default=1,
                         help="worker processes (default 1)")
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
