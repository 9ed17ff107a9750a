"""Shared fixtures: the three pinned reference datasets, a seeded pool of
random residue contexts used by the property suites, run_cli, the
command line in a subprocess, and walk_steps, the division steps decoded
from polyring's walk."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from carlitzdigits import (
    FieldSpec,
    Poly,
    build_context,
    is_irreducible,
    monic_polys,
    parse_poly,
    poly_gcd,
)
from carlitzdigits.errors import HypothesisError, PrimitivityError
from carlitzdigits.ffq import _indices
from carlitzdigits.polyring import _trimmed

ROOT = Path(__file__).resolve().parent.parent


def src_env():
    """The environment with the checkout's src first on PYTHONPATH, so that
    subprocesses import the package without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "carlitzdigits", *argv],
        capture_output=True, text=True, env=src_env(),
    )


# pinned data for the three reference examples, as polynomial text
EX1 = {
    "q": 3,
    "P": "T^2+1",
    "G": "T^2+T+2",
    "digits": ("1", "T+2", "2*T+2", "2*T"),
    "degree_poly": (0, 1, 1, 1),
    "N": 8,
    "r": 4,
    "h_plus_full": 1,
    "h_quadratic": 1,
}
EX2 = {
    "q": 2,
    "P": "T^3+T+1",
    "G": "T^3",
    "digits": ("1", "T+1", "T^2", "T^2+1", "T^2+T", "T", "T^2+T+1"),
    "degree_poly": (0, 1, 2, 2, 2, 1, 2),
    "N": 7,
    "r": 7,
    "h_plus_full": 71,
}
EX3 = {
    "q": 3,
    "P": "T^3+2*T+2",
    "G": "T^3+T+2",
    "digits": ("1", "2*T", "T^2+2", "2*T+2", "T^2+T+2", "2*T^2+2*T", "T^2+2*T",
               "T^2+T+1", "2*T^2", "2*T+1", "T^2+2*T+2", "T^2+2*T+1", "T^2+1"),
    "eps": (1, -1, 1, -1, 1, -1, 1, 1, -1, -1, 1, 1, 1),
    "eta": 1,
    "N": 26,
    "r": 13,
    "h_minus_full": 774144,
    "h_quadratic": 7,
}


@pytest.fixture(scope="session")
def spec2():
    return FieldSpec.from_order(2)


@pytest.fixture(scope="session")
def spec3():
    return FieldSpec.from_order(3)


@pytest.fixture(scope="session")
def spec5():
    return FieldSpec.from_order(5)


def _ctx(example):
    spec = FieldSpec.from_order(example["q"])
    return build_context(parse_poly(spec, example["P"]), parse_poly(spec, example["G"]))


@pytest.fixture(scope="session")
def ctx1():
    return _ctx(EX1)


@pytest.fixture(scope="session")
def ctx2():
    return _ctx(EX2)


@pytest.fixture(scope="session")
def ctx3():
    return _ctx(EX3)


def random_poly(rng, spec, degree, monic=False):
    """Random polynomial of exactly this degree."""
    coeffs = [spec.from_index(rng.randrange(spec.q)) for _ in range(degree)]
    coeffs.append(spec.one if monic else spec.from_index(rng.randrange(1, spec.q)))
    return Poly(spec, tuple(coeffs))


def random_irreducible(rng, spec, degree):
    while True:
        cand = random_poly(rng, spec, degree, monic=True)
        if degree == 0:
            continue
        if is_irreducible(cand):
            return cand


def random_context(rng, qs=(2, 3, 5), d_range=(2, 3), e_range=(1, 4)):
    """A random residue context; both base regimes (e < d and e >= d) occur."""
    while True:
        spec = FieldSpec.from_order(rng.choice(qs))
        d = rng.randint(*d_range)
        P = random_irreducible(rng, spec, d)
        e = rng.randint(*e_range)
        G = random_poly(rng, spec, e, monic=bool(rng.randrange(2)))
        if poly_gcd(G, P).degree() != 0:
            continue
        try:
            return build_context(P, G)
        except (PrimitivityError, HypothesisError):
            continue


@pytest.fixture(scope="session")
def ctx_pool():
    """100 random contexts, fixed seed, mixed regimes."""
    rng = random.Random(20260822)
    pool = [random_context(rng) for _ in range(100)]
    assert any(c.e < c.d for c in pool)
    assert any(c.e >= c.d for c in pool)
    return pool


def all_irreducibles(spec, degree):
    return [f for f in monic_polys(spec, degree) if is_irreducible(f)]


def trial_factorize(n):
    """((p, e), ...) by trial division by every integer up to sqrt(n): the
    reference for numutil.factorize."""
    out, f = [], 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n, e = n // f, e + 1
        if e:
            out.append((f, e))
        f += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def walk_steps(mod, b, c):
    """(H_k, G_k), k = 1, 2, ..., of b * G_{k-1} = H_k * m + G_k from G_0 =
    c as index tuples without trailing zeros, decoded from the outputs of
    mod.walk(b, c, deg b), the walk with every quotient column (mod the
    _Modulus of m)."""
    p, a, dg = mod.F.p, mod.F.a, mod.dg
    for out in mod.walk(b, c, len(b) - 1):
        ints = _indices(out, p, a)
        yield _trimmed(ints[dg:]), _trimmed(ints[:dg])
