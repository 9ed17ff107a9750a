"""The four workloads: seeded inputs, the timed operation, and its checks.

Every workload is a fixed round of input slots.  The seed picks the
polynomials that fill each slot, so the mix of field sizes and degrees
(and with it the cost profile) is the same for every seed.  A slot is a
tuple ``(label, q, *shape)``; ``make`` fills it with seeded polynomials.

``run`` is the timed operation and calls the package only through the
module namespace ``cd``, so that spans installed on those modules see it.
``check`` runs outside the timed region and returns an error text or None.
``counts`` gives the per-layer counts computed from an item and its result.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

import refarith as R

CHECK_REL = 1e-9


def to_ref(poly, p: int) -> list[int]:
    """A package polynomial as reference coefficient indices."""
    out = []
    for c in poly.coeffs:
        out.append(sum(x * p**i for i, x in enumerate(c.coeffs)))
    return R.trim(out)


@dataclass(eq=False)
class Item:
    label: str
    F: R.Field
    args: tuple  # package objects or CLI argv handed to the operation
    ref: dict  # reference data for the checks
    memo: dict = field(default_factory=dict)


class Workload:
    name = ""
    slots: tuple = ()

    def setup(self, cd, rng) -> list[Item]:
        fields = {}
        items = []
        for label, q, *shape in self.slots:
            F = fields.setdefault(q, R.Field(q))
            spec = cd.ffq.FieldSpec.from_order(q)
            items.append(self.make(cd, rng, label, F, spec, *shape))
        return items

    def make(self, cd, rng, label, F, spec, *shape) -> Item:
        raise NotImplementedError

    def run(self, cd, item: Item):
        raise NotImplementedError

    def check(self, cd, item: Item, result, tracer) -> str | None:
        raise NotImplementedError

    def counts(self, item: Item, result) -> dict[str, int]:
        return {}


def _parse(cd, spec, F, f):
    return cd.polyring.parse_poly(spec, R.poly_text(F, f))


def _class_number_row_checks(F, P, rows, legendre_memo) -> str | None:
    """Checks shared by the class-number workloads on rows of one P."""
    d = R.deg(P)
    by_l = {}
    for row in rows:
        if not row["agree"]:
            return f"l = {row['l']}: routes disagree"
        if row["h"] != row["h_plus"] * row["h_minus"]:
            return f"l = {row['l']}: h != h_plus * h_minus"
        if row["l"] == 1 and row["h"] != 1:
            return "h != 1 at l = 1"
        if row["l"] == 2:
            if "legendre" not in legendre_memo:
                legendre_memo["legendre"] = R.legendre_class_number(F, P)
            if row["h"] != legendre_memo["legendre"]:
                return (f"quadratic class number {row['h']} != Legendre sum "
                        f"{legendre_memo['legendre']} (d = {d})")
        by_l[row["l"]] = row["h"]
    for l, h in by_l.items():
        for l2, h2 in by_l.items():
            if l % l2 == 0 and h % h2:
                return f"h(l = {l2}) = {h2} does not divide h(l = {l}) = {h}"
    return None


# -- sweep_all_l ---------------------------------------------------------

class SweepAllL(Workload):
    """Full class-number table (every l | N) of one P, as `sweep` makes it."""

    name = "sweep_all_l"
    # (label, q, d, how many P of this field per round).  A table over
    # F_4 or F_9 costs about 55 ms, over F_3 (d = 4) or F_11 about 130 ms,
    # over F_5 about 300 ms and over F_2 (d = 7) about 1.8 s; one P of a
    # field can cost half again as much as another.  The counts put the
    # median in the middle of the 38 tables of the second kind and the
    # 90th percentile in the middle of the ten over F_5, so both are order
    # statistics of many draws and move little from seed to seed (with six
    # over F_5 the 90th percentile moved by 14% between seeds).  F_3 has
    # only 18 monic irreducibles of degree 4.
    tables = (
        ("4^3", 4, 3, 5),
        ("9^2", 9, 2, 6),
        ("3^4", 3, 4, 16),
        ("11^2", 11, 2, 22),
        ("5^3", 5, 3, 10),
        ("2^7", 2, 7, 1),
    )

    def setup(self, cd, rng) -> list[Item]:
        items = []
        for label, q, d, count in self.tables:
            F = R.Field(q)
            spec = cd.ffq.FieldSpec.from_order(q)
            irreducibles = [P for P in cd.polyring.monic_polys(spec, d)
                            if cd.polyring.is_irreducible(P)]
            for P in rng.sample(irreducibles, count):
                items.append(Item(label, F, (P,), {"P": to_ref(P, F.p),
                                                   "irreducibles": len(irreducibles)}))
        return items

    def run(self, cd, item):
        (P,) = item.args
        G = cd.classnum.canonical_primitive_lift(P)
        ctx = cd.chars.build_context(P, G)
        return [cd.classnum.compute_report(ctx, l, verify_charsum=True)
                for l in cd.numutil.divisors(ctx.N)]

    def check(self, cd, item, result, tracer):
        F, P = item.F, item.ref["P"]
        d = R.deg(P)
        want = sum(_mobius(d // k) * F.q**k for k in R.divisors(d)) // d
        if item.ref["irreducibles"] != want:
            return f"enumerated {item.ref['irreducibles']} irreducibles, expected {want}"
        N = F.q**d - 1
        rows = [r.to_json_dict() for r in result]
        if [r["l"] for r in rows] != R.divisors(N):
            return "rows do not cover every divisor of N"
        sums = item.memo.get("sums")
        if sums is None:
            sums = item.memo["sums"] = R.CharSums(F, P)
        for row in rows:
            log_plus, log_minus = sums.log_parts(row["l"])
            if not (R.matches_log(row["h_plus"], log_plus, CHECK_REL)
                    and R.matches_log(row["h_minus"], log_minus, CHECK_REL)):
                return f"l = {row['l']}: differs from the floating character-sum product"
        return _class_number_row_checks(F, P, rows, item.memo)

    def counts(self, item, result):
        c = {"chars.power_table_entries": 0, "cycint.product_factors": 0,
             "cycint.resultant_dim": 0}
        for report in result:
            _row_counts(c, report.l, report.m, report.r)
        c["chars.power_table_entries"] = item.F.q ** R.deg(item.ref["P"]) - 1
        return c


def _row_counts(c: dict, l: int, m: int, r: int) -> None:
    # digit route: m-1 plus factors and l-m minus factors; the character
    # sum route multiplies the same numbers again
    c["cycint.product_factors"] += 2 * (l - 1)
    if m > 1:
        c["cycint.resultant_dim"] += (m - 1) + (r - 1)


def _mobius(n: int) -> int:
    ps = R.prime_factors(n)
    if any(n % (p * p) == 0 for p in ps):
        return 0
    return -1 if len(ps) % 2 else 1


# -- quadratic_cli -------------------------------------------------------

class QuadraticCli(Workload):
    """One in-process `carlitzdigits classnum --l 2` request per operation."""

    name = "quadratic_cli"
    # (label, q, d) slots, cheapest first; the seed picks a random
    # irreducible P for each.  The median falls in the middle of the (7, 3)
    # slots and the 90th percentile inside the (9, 3) slots.  The search
    # for a primitive element makes one P of a field cost up to half again
    # as much as another, so each of those two holds eighteen P: the median
    # and 90th percentile are then order statistics of eighteen draws,
    # which move little from seed to seed.
    slots = (
        *[("3,3", 3, 3)] * 9,
        *[("5,3", 5, 3)] * 9,
        *[("3,4", 3, 4)] * 9,
        *[("7,3", 7, 3)] * 18,
        *[("3,5", 3, 5)] * 9,
        *[("9,3", 9, 3)] * 18,
        *[("5,4", 5, 4)] * 3,
    )

    def make(self, cd, rng, label, F, spec, d):
        P = R.random_irreducible(F, rng, d)
        argv = ["classnum", "--q", str(F.q), "--P", R.poly_text(F, P), "--l", "2",
                "--verify", "charsum", "--verify", "pointcount", "--format", "json"]
        return Item(label, F, tuple(argv), {"P": P})

    def run(self, cd, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cd.cli.main(list(item.args))
        return rc, buf.getvalue()

    def check(self, cd, item, result, tracer):
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        row = json.loads(text)
        if row["l"] != 2 or row["methods"] != ["digits", "charsum", "pointcount"]:
            return "unexpected l or methods"
        return _class_number_row_checks(item.F, item.ref["P"], [row], item.memo)

    def counts(self, item, result):
        row = json.loads(result[1])
        N = item.F.q ** R.deg(item.ref["P"]) - 1
        c = {"chars.power_table_entries": N, "cycint.product_factors": 0,
             "cycint.resultant_dim": 0}
        _row_counts(c, row["l"], row["m"], row["r"])
        return c


# -- digit_stream --------------------------------------------------------

DIGITS = 150


class DigitStream(Workload):
    """digit_expand(num, den, G, 150): long division plus the period."""

    name = "digit_stream"
    # (label, q, kind, den shape, deg G).  kind "irr": den irreducible of
    # that degree; "red": den the product of distinct irreducibles of those
    # degrees and G primitive mod each, so the period is the lcm of the
    # q^d_i - 1 and is found by stepping; "shared": gcd(G, den) != 1, so
    # no period.  Every slot is filled twice per round: one denominator of a
    # reducible slot can cost half again as much as another, and the 90th
    # percentile, which falls among them, moved by 12% between seeds with
    # one draw each.
    slots = 2 * (
        ("2 irr", 2, "irr", 14, 3),
        ("2 irr", 2, "irr", 12, 1),
        ("2 red", 2, "red", (5, 6), 2),
        ("2 red", 2, "red", (2, 3, 5), 3),
        ("2 shared", 2, "shared", 16, 4),
        ("3 irr", 3, "irr", 10, 2),
        ("3 irr", 3, "irr", 8, 4),
        ("3 red", 3, "red", (1, 2, 5), 3),
        ("3 shared", 3, "shared", 10, 2),
        ("4 irr", 4, "irr", 8, 3),
        ("4 irr", 4, "irr", 6, 1),
        ("4 red", 4, "red", (1, 5), 2),
        ("4 shared", 4, "shared", 8, 3),
        ("7 irr", 7, "irr", 7, 2),
        ("7 irr", 7, "irr", 6, 4),
        ("7 red", 7, "red", (2, 3), 2),
        ("7 red", 7, "red", (1, 3), 3),
        ("7 shared", 7, "shared", 6, 2),
        ("9 irr", 9, "irr", 6, 3),
        ("9 red", 9, "red", (1, 3), 2),
        ("9 shared", 9, "shared", 7, 1),
    )

    def make(self, cd, rng, label, F, spec, kind, shape, e):
        if kind == "irr":
            den = R.random_irreducible(F, rng, shape)
            G = R.random_poly(F, rng, e)
        elif kind == "red":
            den, G = _reducible_with_primitive_base(F, rng, shape, e)
        else:
            common = R.random_irreducible(F, rng, 1)
            den = R.pmul(F, common, R.random_poly(F, rng, shape - 1, monic=True))
            G = R.pmul(F, common, R.random_poly(F, rng, e - 1))
        while True:
            num = R.random_poly(F, rng, rng.randrange(R.deg(den) + 3))
            if R.deg(R.pgcd(F, num, den)) == 0:
                break
        args = (_parse(cd, spec, F, num), _parse(cd, spec, F, den),
                _parse(cd, spec, F, G), DIGITS)
        return Item(label, F, args, {"num": num, "den": den, "G": G})

    def run(self, cd, item):
        return cd.digits.digit_expand(*item.args)

    def check(self, cd, item, result, tracer):
        F, p = item.F, item.F.p
        num, den, G = item.ref["num"], item.ref["den"], item.ref["G"]
        digits = [to_ref(h, p) for h in result.digits]
        if len(digits) != DIGITS:
            return "wrong number of digits"
        if any(R.deg(h) >= R.deg(G) for h in digits):
            return "a digit has degree >= deg G"
        # r_k = num*G^k - den*sum_{j<=k} H_j G^(k-j) satisfies r_0 = num -
        # den*H_0 and r_k = G*r_(k-1) - den*H_k; every r_k must be a proper
        # remainder, which gives the claimed identity at k = n
        rem = R.psub(F, num, R.pmul(F, den, to_ref(result.h0, p)))
        for h in digits:
            if R.deg(rem) >= R.deg(den):
                return "num*G^n - den*sum H_k G^(n-k) has degree >= deg den"
            rem = R.psub(F, R.pmul(F, G, rem), R.pmul(F, den, h))
        if R.deg(rem) >= R.deg(den):
            return "num*G^n - den*sum H_k G^(n-k) has degree >= deg den"
        coprime = R.deg(R.pgcd(F, G, den)) == 0
        g = result.period
        if g is None:
            return "no period although gcd(G, den) = 1" if coprime else None
        if not coprime:
            return "a period is reported although gcd(G, den) != 1"
        if not R.mult_order_is(F, G, den, g):
            return f"reported period {g} is not the order of G mod den"
        if any(digits[k] != digits[k + g] for k in range(DIGITS - g)):
            return "digits do not repeat with the reported period"
        return None

    def counts(self, item, result):
        return {"digits.digits_out": len(result.digits)}


def _reducible_with_primitive_base(F, rng, shape, e):
    """Squarefree den with irreducible factors of the given degrees, and a
    base G of degree e that is primitive modulo every factor."""
    while True:
        factors = []
        while len(factors) < len(shape):
            f = R.random_irreducible(F, rng, shape[len(factors)])
            if f not in factors:
                factors.append(f)
        for _ in range(100):
            G = R.random_poly(F, rng, e)
            if all(R.mult_order_is(F, R.pmod(F, G, f), f, F.q ** R.deg(f) - 1)
                   for f in factors):
                den = [1]
                for f in factors:
                    den = R.pmul(F, den, f)
                return den, G


# -- carlitz_eval --------------------------------------------------------

class CarlitzEval(Workload):
    """carlitz_poly(I).apply(f): few multiplications of high degree."""

    name = "carlitz_eval"
    # (label, q, deg I, deg f), cheapest first, each filled six times per
    # round (one I or f can cost half again as much as another of the same
    # shape, and six draws keep the median steady from seed to seed); the
    # output degree is at most q^deg(I) * deg f.  The median falls among the shapes of about the same cost from (3, 5, 2) to (2, 7, 2)
    # and the 90th percentile among (4, 5, 1), (4, 4, 3) and (2, 8, 2).
    slots = tuple(slot for slot in (
        ("2,3,2", 2, 3, 2), ("3,3,3", 3, 3, 3), ("5,3,1", 5, 3, 1), ("2,6,1", 2, 6, 1),
        ("3,4,2", 3, 4, 2), ("2,5,3", 2, 5, 3), ("4,4,2", 4, 4, 2),
        ("3,5,1", 3, 5, 1), ("3,5,2", 3, 5, 2), ("2,7,2", 2, 7, 2), ("5,4,1", 5, 4, 1),
        ("5,3,3", 5, 3, 3), ("4,4,2", 4, 4, 2), ("2,8,1", 2, 8, 1), ("2,7,3", 2, 7, 3),
        ("3,6,1", 3, 6, 1), ("4,4,3", 4, 4, 3), ("4,5,1", 4, 5, 1), ("2,8,2", 2, 8, 2),
        ("5,4,2", 5, 4, 2),
    ) for _ in range(6))

    def make(self, cd, rng, label, F, spec, dI, df):
        I = R.random_poly(F, rng, dI)
        # a dense argument: zero coefficients in f make f^(q^i) sparse and
        # the cost of a shape depend on the fill rather than on the shape
        f1 = R.random_poly(F, rng, df, dense=True)
        f2 = R.random_poly(F, rng, 1)
        args = (_parse(cd, spec, F, I), _parse(cd, spec, F, f1))
        ref = {"I": I, "f1": f1, "f2": f2,
               "f2_pkg": _parse(cd, spec, F, f2),
               "f12_pkg": _parse(cd, spec, F, R.padd(F, f1, f2))}
        return Item(label, F, args, ref)

    def run(self, cd, item):
        I, f = item.args
        rho = cd.carlitz.carlitz_poly(I)
        return rho, rho.apply(f)

    def check(self, cd, item, result, tracer):
        F, p = item.F, item.F.p
        rho, out = result
        want = item.memo.get("horner")
        if want is None:
            want = item.memo["horner"] = R.carlitz_horner(F, item.ref["I"], item.ref["f1"])
        if to_ref(out, p) != want:
            return "rho_I(f) differs from the Horner evaluation"
        # additivity takes two more apply calls, as long as the operation
        # itself; on the same inputs it gives the same answer every round,
        # so it is checked in the first round only
        if "additive" not in item.memo:
            with tracer.pause():
                y2 = to_ref(rho.apply(item.ref["f2_pkg"]), p)
                y12 = to_ref(rho.apply(item.ref["f12_pkg"]), p)
            item.memo["additive"] = y12 == R.padd(F, want, y2)
        if not item.memo["additive"]:
            return "rho_I(f1 + f2) != rho_I(f1) + rho_I(f2)"
        return None

    def counts(self, item, result):
        return {"carlitz.output_degree": max(R.deg(to_ref(result[1], item.F.p)), 0)}


WORKLOADS = {w.name: w for w in (SweepAllL(), QuadraticCli(), DigitStream(), CarlitzEval())}
COUNTS = ("chars.power_table_entries", "cycint.product_factors", "cycint.resultant_dim",
          "digits.digits_out", "carlitz.output_degree")
