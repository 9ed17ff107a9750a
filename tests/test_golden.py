"""CLI outputs pinned byte for byte, exit codes included.

Each file under tests/golden/ holds the standard output of one request, as
written by `python -m carlitzdigits <argv> > tests/golden/<name>.txt`, or
for a refused request (REFUSALS) its standard error, as written by
`python -m carlitzdigits <argv> 2> tests/golden/<name>.txt`.
"""

import contextlib
import io
from pathlib import Path

import pytest

from carlitzdigits.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_paper_seed0": ["verify-paper", "--seed", "0"],
    "verify_paper_seed7_json": ["verify-paper", "--seed", "7", "--format", "json"],
    "sweep_q4_d3_charsum": ["sweep", "--q", "4", "--d", "3", "--verify", "charsum"],
    # N = 80: 18 tables over every l | 80
    "sweep_q3_d4_charsum": ["sweep", "--q", "3", "--d", "4", "--verify", "charsum"],
    "sweep_q5_d2_json": ["sweep", "--q", "5", "--d", "2", "--verify", "charsum",
                         "--verify", "pointcount", "--format", "json"],
    "classnum_q9_cubic": ["classnum", "--q", "9", "--P", "T^3+T+(1,1)", "--l", "2",
                          "--verify", "charsum", "--verify", "pointcount"],
    # genus 2: the point count takes F_81 as F_9[T]/(Q_2)
    "classnum_q9_quintic": ["classnum", "--q", "9", "--P", "T^5+T+(0,1)", "--l", "2",
                            "--verify", "charsum", "--verify", "pointcount"],
    "classnum_q7_quartic_json": ["classnum", "--q", "7", "--P", "T^4+T+1", "--l", "2",
                                 "--verify", "charsum", "--verify", "pointcount",
                                 "--format", "json"],
    "sweep_q7_d2": ["sweep", "--q", "7", "--d", "2", "--verify", "charsum",
                    "--verify", "pointcount"],
    # even q, l | q - 1: m = 3 places at infinity, genus 1, h = 9
    "classnum_q4_cubic_l3": ["classnum", "--q", "4", "--P", "T^3+T+1", "--l", "3",
                             "--verify", "charsum", "--verify", "pointcount"],
    # l = 5 does not divide q - 1: the Frobenius order is taken mod P, genus 4, h = 121
    "classnum_q2_quartic_l5": ["classnum", "--q", "2", "--P", "T^4+T+1", "--l", "5",
                               "--verify", "charsum", "--verify", "pointcount"],
    # r = 3906, m = 2, n = 4: lc(G) = 2 enters both the twist and the logs
    "classnum_q5_sextic_nonmonic_json": ["classnum", "--q", "5", "--P", "T^6+T+2",
                                         "--G", "2*T^6+T+3", "--l", "8", "--verify",
                                         "charsum", "--format", "json"],
    "classnum_q5_septic_charsum_json": ["classnum", "--q", "5", "--P", "T^7+T+1", "--l", "2",
                                        "--verify", "charsum", "--format", "json"],
    # (T^5+T^2+1)(T^6+T+1): the exponent of (A/M)^x is lcm(2^5 - 1, 2^6 - 1)
    "period_q2_reducible": ["period", "--q", "2", "--M", "T^11+T^8+T^5+T^3+T^2+T+1",
                            "--G", "T"],
    # (T+1)^3 (T^2+1)^2 (T^3+2T+1): the order 156 of T has the factor p = 3
    "period_q3_nonsquarefree": ["period", "--q", "3", "--M",
                                "T^10+T^8+2*T^7+2*T^6+2*T^2+2*T+1", "--G", "T"],
    "carlitz_q4": ["carlitz", "--q", "4", "--I", "(0,1)*T^3+T+(1,1)"],
    "carlitz_q5_json": ["carlitz", "--q", "5", "--I", "T^3+2*T+4", "--format", "json"],
    "expand_q7_text": ["expand", "--q", "7", "--G", "2*T^2+T+4", "--num", "3*T^4+T+6",
                       "--den", "5*T^3+2*T+1", "--terms", "24"],
    "expand_q9_json": ["expand", "--q", "9", "--G", "(0,1)*T^2+T+(1,2)", "--num", "T+(2,1)",
                       "--den", "T^4+(1,1)*T+2", "--terms", "12", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(CASES[name])
    assert code == 0
    assert buf.getvalue().encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()


# name -> (argv, exit code); the request writes nothing to standard output
REFUSALS = {
    # N = 24; T+3 has order 8 mod P, so the least witness is ell = 3
    "classnum_q5_not_primitive_stderr": (
        ["classnum", "--q", "5", "--P", "T^2+T+1", "--G", "T+3", "--l", "2"], 3),
    # N = q - 1 = 2 * 79 * 6329; 4 is a square, so ell = 2, found before any log table
    "classnum_q999983_not_primitive_stderr": (
        ["classnum", "--q", "999983", "--P", "T+1", "--G", "4", "--l", "2"], 3),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_cli_refusal_is_pinned(name):
    argv, want_code = REFUSALS[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == want_code
    assert out.getvalue() == ""
    assert err.getvalue().encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()
