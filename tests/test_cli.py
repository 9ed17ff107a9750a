import concurrent.futures
import contextlib
import io
import json
import subprocess
import sys
import time

import pytest

from carlitzdigits import chars, classnum, cli, polyring

from carlitzdigits.digits import DigitExpansion, digit_expand
from carlitzdigits.errors import ExactnessError
from carlitzdigits.ffq import FieldSpec
from carlitzdigits.polyring import Poly, format_poly, mod_pow, parse_poly

from conftest import all_irreducibles, run_cli, src_env, trial_factorize


def test_expand_text_golden():
    res = run_cli("expand", "--q", "3", "--G", "T^2+T+2", "--P", "T^2+1",
                  "--terms", "4")
    assert res.returncode == 0
    assert res.stdout == (
        "base G = T^2+T+2 over F_3\n"
        "numerator = 1\n"
        "denominator = T^2+1\n"
        "H_0 = 0\n"
        "H_1 = 1\n"
        "H_2 = T+2\n"
        "H_3 = 2*T+2\n"
        "H_4 = 2*T\n"
        "period = 8\n"
    )


def test_expand_with_numerator():
    res = run_cli("expand", "--q", "3", "--G", "T", "--num", "T^2+1",
                  "--den", "T", "--terms", "2")
    assert res.returncode == 0
    assert "H_0 = T\n" in res.stdout
    assert "H_1 = 1\n" in res.stdout
    assert "H_2 = 0\n" in res.stdout
    assert "period = none\n" in res.stdout


def test_expand_json_roundtrip():
    res = run_cli("expand", "--q", "2", "--G", "T^3", "--P", "T^3+T+1",
                  "--terms", "7", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    spec = FieldSpec.from_order(2)
    back = DigitExpansion.from_json_dict(spec, data)
    direct = digit_expand(
        Poly.one(spec), parse_poly(spec, "T^3+T+1"), parse_poly(spec, "T^3"), 7
    )
    assert back == direct
    assert data["period"] == 7


def test_expand_denominator_flags():
    assert run_cli("expand", "--q", "3", "--G", "T",
                   "--P", "T", "--den", "T").returncode == 2
    assert run_cli("expand", "--q", "3", "--G", "T").returncode == 2
    assert run_cli("expand", "--q", "3", "--G", "T", "--den", "0").returncode == 3


def test_period_text_and_json():
    res = run_cli("period", "--q", "3", "--M", "T^2+1", "--G", "T^2+T+2")
    assert res.returncode == 0
    assert res.stdout == "period = 8\n"
    res = run_cli("period", "--q", "3", "--M", "T^2+1", "--G", "T^2+T+2",
                  "--format", "json")
    data = json.loads(res.stdout)
    assert data == {"q": 3, "M": "T^2+1", "G": "T^2+T+2", "period": 8}


def test_classnum_with_oracles():
    res = run_cli("classnum", "--q", "3", "--P", "T^3+2*T+2", "--G", "T^3+T+2",
                  "--l", "2", "--verify", "charsum", "--verify", "pointcount")
    assert res.returncode == 0
    assert "h = 7\n" in res.stdout
    assert "methods = digits+charsum+pointcount\n" in res.stdout
    assert "agree = true\n" in res.stdout


def test_classnum_part_plus():
    res = run_cli("classnum", "--q", "2", "--P", "T^3+T+1", "--G", "T^3",
                  "--l", "7", "--part", "plus")
    assert res.returncode == 0
    assert "h_plus = 71\n" in res.stdout
    assert "h_minus" not in res.stdout
    assert "h =" not in res.stdout


def test_classnum_default_base_is_canonical():
    res = run_cli("classnum", "--q", "3", "--P", "T^2+1", "--l", "8",
                  "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["G"] == "T^2+T+2"
    assert data["h_plus"] == 1


def test_classnum_error_exit_codes():
    # deg G < deg P: hypothesis violation
    assert run_cli("classnum", "--q", "2", "--P", "T^3+T+1", "--G", "T",
                   "--l", "7").returncode == 3
    # non-primitive base
    assert run_cli("classnum", "--q", "3", "--P", "T^2+1", "--G", "T",
                   "--l", "8").returncode == 3
    # l does not divide N
    assert run_cli("classnum", "--q", "3", "--P", "T^2+1", "--l", "5").returncode == 3
    # 6 is not a prime power
    assert run_cli("classnum", "--q", "6", "--P", "T^2+1", "--l", "2").returncode == 2
    # malformed polynomial
    assert run_cli("classnum", "--q", "3", "--P", "x^2+1", "--l", "2").returncode == 2


def test_reducible_field_modulus_exits_2():
    """A plain ValueError (here from FieldSpec) is a parse error."""
    res = run_cli("classnum", "--q", "4", "--modulus", "1,0,1", "--P", "T^2+T+1",
                  "--l", "3")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: modulus is reducible over F_p\n"


def test_exactness_error_exits_1(monkeypatch, capsys):
    def failing_period(m, base):
        raise ExactnessError("order finding failed; is gcd(G, M) = 1?")

    monkeypatch.setattr(cli, "digit_period", failing_period)
    assert cli.main(["period", "--q", "3", "--M", "T^2+1", "--G", "T^2+T+2"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: order finding failed; is gcd(G, M) = 1?\n"


def test_carlitz_text_and_json():
    res = run_cli("carlitz", "--q", "2", "--I", "T^2")
    assert res.returncode == 0
    assert res.stdout == "rho(x) = T^2*x + (T^2+T)*x^2 + x^4\n"
    res = run_cli("carlitz", "--q", "2", "--I", "T^2", "--format", "json")
    data = json.loads(res.stdout)
    assert data["coefficients"] == ["T^2", "T^2+T", "1"]
    assert data["x_degree"] == 4


def test_verify_paper_passes_and_is_deterministic():
    first = run_cli("verify-paper")
    second = run_cli("verify-paper")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith("pinned-value verification (seed 0)\n")
    assert "\nPASS: " in first.stdout
    assert "FAIL" not in first.stdout


def test_verify_paper_other_seed_and_json():
    res = run_cli("verify-paper", "--seed", "1", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["pass"] is True
    assert data["failed"] == 0
    assert data["seed"] == 1
    assert data["checks"] == sum(len(g["checks"]) for g in data["groups"])


def test_sweep_csv_golden():
    res = run_cli("sweep", "--q", "3", "--d", "2", "--l", "2")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "q,d,P,G,l,m,n,h_plus,h_minus,h,methods,agree"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[2] for row in rows] == ["T^2+1", "T^2+T+2", "T^2+2*T+2"]
    for row in rows:
        assert row[4] == "2" and row[5] == "2" and row[6] == "1"
        assert row[7] == row[9] == "1"  # h_plus and h
        assert row[10] == "digits"
        assert row[11] == "true"


def test_sweep_parallel_matches_serial():
    serial = run_cli("sweep", "--q", "3", "--d", "2", "--verify", "charsum")
    parallel = run_cli("sweep", "--q", "3", "--d", "2", "--verify", "charsum",
                       "--parallel", "2")
    assert serial.returncode == 0 and parallel.returncode == 0
    assert serial.stdout == parallel.stdout
    assert "digits+charsum" in serial.stdout


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, starting no worker."""

    seen = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_sweep_parallel_is_capped(monkeypatch):
    """--parallel N starts at most one worker per table and per CPU; the
    output is that of a serial sweep."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    argv = ["sweep", "--q", "3", "--d", "2", "--verify", "charsum"]
    serial = _main_in_process(argv)
    assert _RecordingPool.seen == []
    for cpus, parallel, workers in ((8, "1000000", 3), (2, "1000000", 2), (None, "64", None),
                                    (8, "2", 2)):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        _RecordingPool.seen.clear()
        assert _main_in_process(argv + ["--parallel", parallel]) == serial
        assert _RecordingPool.seen == ([] if workers is None else [workers])


def test_cli_import_leaves_out_process_pools():
    """Only sweep with more than one worker imports concurrent.futures."""
    code = "import sys, carlitzdigits.cli; print('concurrent.futures' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=src_env())
    assert (res.returncode, res.stdout) == (0, "False\n")


def test_sweep_json_and_text():
    res = run_cli("sweep", "--q", "2", "--d", "3", "--l", "7", "--format", "json")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    assert [row["P"] for row in rows] == ["T^3+T+1", "T^3+T^2+1"]
    assert all(row["h_plus"] == 71 for row in rows)
    text = run_cli("sweep", "--q", "2", "--d", "3", "--l", "7", "--format", "text")
    assert text.returncode == 0
    lines = text.stdout.strip().split("\n")
    assert lines[0].startswith("q ")
    assert len(lines) == 3


def test_sweep_resource_bound():
    res = run_cli("sweep", "--q", "2", "--d", "20")
    assert res.returncode == 4
    assert "bound" in res.stderr


SWEEP_HEADER = "q,d,P,G,l,m,n,h_plus,h_minus,h,methods,agree\n"


def test_sweep_for_no_subfield_degree_does_no_work():
    """3 divides neither 2^19 - 1 nor 2^3 - 1, so no subfield has degree 3:
    the sweep prints an empty table at once, without testing any P."""
    start = time.monotonic()
    res = run_cli("sweep", "--q", "2", "--d", "19", "--l", "3", "--format", "csv")
    assert time.monotonic() - start < 5
    assert (res.returncode, res.stdout, res.stderr) == (0, SWEEP_HEADER, "")
    text_header = "  ".join(SWEEP_HEADER.strip().split(",")) + "\n"
    for fmt, want in (("text", text_header), ("csv", SWEEP_HEADER), ("json", "[]\n")):
        argv = ["sweep", "--q", "2", "--d", "3", "--l", "3", "--format", fmt]
        assert _main_in_process(argv) == (0, want, "")


def test_sweep_step_bound():
    """(2, 19) with --l 1 (27594 contexts of 524287 steps) and (3, 12) with
    --l 2 (44220 of 265720) pass the order and norm-degree bounds; the step
    bound refuses both before any P is enumerated, naming the steps and the
    bound.  The (2, 10) table, 99 contexts of 1023 steps, stays inside."""
    for q, d, l, count, r in ((2, 19, 1, 27594, 524287), (3, 12, 2, 44220, 265720)):
        start = time.monotonic()
        res = run_cli("sweep", "--q", str(q), "--d", str(d), "--l", str(l))
        assert time.monotonic() - start < 1
        assert (res.returncode, res.stdout) == (4, "")
        assert f"{count * r} division steps" in res.stderr
        assert f"bound {cli.SWEEP_STEP_BOUND}" in res.stderr
    assert 99 * 1023 <= cli.SWEEP_STEP_BOUND
    code, text, _ = _main_in_process(["sweep", "--help"])
    assert code == 0 and f"more than {cli.SWEEP_STEP_BOUND} division steps" in text


def test_irreducible_count_matches_enumeration():
    """Gauss's count of the monic irreducibles of degree d over F_q."""
    for q, top in ((2, 10), (3, 5), (4, 4), (5, 3), (9, 2)):
        spec = FieldSpec.from_order(q)
        for d in range(1, top + 1):
            assert cli._irreducible_count(q, d) == len(all_irreducibles(spec, d))


def test_classnum_resource_bound():
    # 7^8 - 1 = 5764800: refused before any power table is built
    start = time.monotonic()
    res = run_cli("classnum", "--q", "7", "--P", "T^8+T+3", "--l", "2")
    assert time.monotonic() - start < 10
    assert res.returncode == 4
    assert res.stdout == ""
    assert "bound" in res.stderr


def test_classnum_product_beyond_float_range():
    # h+ has 690 digits, far past the largest double
    res = run_cli("classnum", "--q", "2", "--P", "T^9+T^4+1", "--l", "511",
                  "--verify", "charsum")
    assert res.returncode == 0, res.stderr
    assert "agree = true\n" in res.stdout
    h_plus = next(line for line in res.stdout.splitlines() if line.startswith("h_plus = "))
    assert len(h_plus) - len("h_plus = ") == 690


def test_output_file(tmp_path):
    target = tmp_path / "digits.txt"
    res = run_cli("expand", "--q", "3", "--G", "T^2+T+2", "--P", "T^2+1",
                  "--terms", "4", "--output", str(target))
    assert res.returncode == 0
    assert res.stdout == ""
    inline = run_cli("expand", "--q", "3", "--G", "T^2+T+2", "--P", "T^2+1",
                     "--terms", "4")
    assert target.read_text() == inline.stdout


def test_extension_field_expansion():
    res = run_cli("expand", "--q", "4", "--G", "T", "--den", "T^2+(1,1)",
                  "--terms", "2", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["denominator"] == "T^2+(1,1)"


def test_parse_error_exit():
    assert run_cli("period", "--q", "3", "--M", "x^2", "--G", "T").returncode == 2


def test_order_of_large_reducible_modulus():
    """A reducible degree-16 modulus over F_9 whose order stepping could not
    reach: the period g is the order of G, G^g = 1 and G^(g/ell) != 1 mod M
    for each prime ell | g."""
    start = time.monotonic()
    res = run_cli("expand", "--q", "9", "--den", "T^16+T+2", "--G", "T+1", "--terms", "3")
    assert time.monotonic() - start < 10
    assert res.returncode == 0, res.stderr
    g = int(res.stdout.splitlines()[-1].removeprefix("period = "))
    spec = FieldSpec.from_order(9)
    M, G = parse_poly(spec, "T^16+T+2"), parse_poly(spec, "T+1")
    one = Poly.one(spec)
    assert mod_pow(G, g, M) == one
    assert all(mod_pow(G, g // ell, M) != one for ell, _ in trial_factorize(g))


def test_period_of_large_irreducible_modulus():
    """q^d - 1 is factored by rho, not trial division: 2^61 - 1 is certified
    prime at once, and 2^127 - 1, too large to certify, is refused once rho
    has spent its budget."""
    start = time.monotonic()
    res = run_cli("period", "--q", "2", "--M", "T^61+T^5+T^2+T+1", "--G", "T")
    assert time.monotonic() - start < 5
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"period = {2**61 - 1}\n"
    start = time.monotonic()
    res = run_cli("period", "--q", "2", "--M", "T^127+T+1", "--G", "T")
    assert time.monotonic() - start < 10
    assert res.returncode == 4
    assert res.stdout == ""
    assert "budget" in res.stderr


def test_expand_size_bound():
    # 2^21 terms of a quadratic base fill the 2^22 digit slots; one more is refused
    start = time.monotonic()
    for terms, G in (("2097153", "T^2+1"), ("4194305", "T+1")):
        res = run_cli("expand", "--q", "3", "--den", "T^3+2*T+1", "--G", G, "--terms", terms)
        assert res.returncode == 4
        assert res.stdout == ""
        assert "bound" in res.stderr
    assert time.monotonic() - start < 5
    code, text, _ = _main_in_process(["expand", "--help"])
    assert code == 0 and f"more than {cli.OUTPUT_SLOT_BOUND} digit slots" in text


def test_norm_degree_bound():
    # 2^13 - 1 = 8191 and 2^19 - 1 = 524287 are prime: one norm of degree 8190,
    # or 524286, refused before any context is built
    for argv in (["classnum", "--q", "2", "--P", "T^13+T^4+T^3+T+1", "--l", "8191"],
                 ["sweep", "--q", "2", "--d", "19"]):
        start = time.monotonic()
        res = run_cli(*argv)
        assert time.monotonic() - start < 2
        assert res.returncode == 4
        assert res.stdout == ""
        assert "bound" in res.stderr
    for command, phrase in (("classnum", "phi(l) above"), ("sweep", "phi(t) above")):
        code, text, _ = _main_in_process([command, "--help"])
        assert code == 0 and f"{phrase} {cli.NORM_DEGREE_BOUND}" in text


def test_point_count_bound_help():
    for command in ("classnum", "sweep"):
        code, text, _ = _main_in_process([command, "--help"])
        text = " ".join(text.split())
        assert code == 0 and f"sum_(f <= g) q^f above {cli.POINT_COUNT_BOUND}" in text
        assert "exit code 4" in text


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_expand_writes_each_digit_as_it_is_made(monkeypatch, fmt):
    """When H_k is drawn from the division, H_(k-1) is already written."""
    out = io.StringIO()
    real = cli.digit_stream

    def watched(*args):
        h0, period, digits = real(*args)

        def checked():
            for k, digit in enumerate(digits, start=1):
                text = out.getvalue()
                written = text.count("\nH_") - 1 if fmt == "text" else text.count('\n    "')
                assert written == k - 1
                yield digit
        return h0, period, checked()

    monkeypatch.setattr(cli, "digit_stream", watched)
    with contextlib.redirect_stdout(out):
        code = cli.main(["expand", "--q", "5", "--G", "T^2+3", "--P", "T^3+T+1",
                         "--terms", "40", "--format", fmt])
    assert code == 0
    if fmt == "json":
        assert len(json.loads(out.getvalue())["digits"]) == 40
    else:
        assert out.getvalue().count("\nH_") == 41


def test_refused_expand_writes_nothing(tmp_path):
    """The period is computed before the first line: 2^127 - 1 is refused
    on the rho budget, with no output file made."""
    target = tmp_path / "out.txt"
    code, out, err = _main_in_process(["expand", "--q", "2", "--den", "T^127+T+1", "--G", "T",
                                       "--terms", "3", "--output", str(target)])
    assert code == 4 and out == "" and "budget" in err
    assert not target.exists()


def test_carlitz_size_bound():
    # T^30 over F_2 has 2^31 - 1 coefficient slots; T^20 has 2,097,151
    start = time.monotonic()
    res = run_cli("carlitz", "--q", "2", "--I", "T^30")
    assert time.monotonic() - start < 1
    assert res.returncode == 4
    assert res.stdout == ""
    assert "bound" in res.stderr
    res = run_cli("carlitz", "--q", "2", "--I", "T^20")
    assert res.returncode == 0, res.stderr
    assert res.stdout.endswith(" + x^1048576\n")


def _main_in_process(argv):
    """(exit code, stdout, stderr) of one in-process cli.main call; an
    argparse exit counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_reused_across_calls():
    """main builds its parser once; repeated calls answer as the first."""
    verified = ["classnum", "--q", "5", "--P", "T^2+T+2", "--l", "2",
                "--verify", "charsum", "--verify", "pointcount", "--format", "json"]
    plain = ["classnum", "--q", "5", "--P", "T^2+T+2", "--l", "2", "--format", "json"]
    bad = ["classnum", "--q", "5", "--l", "2"]  # --P missing
    first = {name: _main_in_process(argv)
             for name, argv in (("verified", verified), ("plain", plain), ("bad", bad))}
    assert first["verified"][0] == 0 and first["plain"][0] == 0
    assert json.loads(first["verified"][1])["methods"] == ["digits", "charsum", "pointcount"]
    assert json.loads(first["plain"][1])["methods"] == ["digits"]
    assert first["bad"][0] == 2 and first["bad"][1] == ""
    for argv, name in ((verified, "verified"), (plain, "plain"), (bad, "bad"),
                       (plain, "plain"), (verified, "verified")):
        assert _main_in_process(argv) == first[name]
    # --verify appends to a copy: the default list stays empty
    assert cli._parser().parse_args(plain).verify == []
    assert cli._parser() is cli._parser()


def test_help_text_unchanged_by_reuse():
    fresh = cli.build_parser()
    code, text, _ = _main_in_process(["--help"])
    assert code == 0 and text == fresh.format_help()
    _main_in_process(["classnum", "--q", "3", "--P", "T^2+1", "--l", "2"])
    assert _main_in_process(["--help"]) == (0, text, "")
    code, sub_help, _ = _main_in_process(["classnum", "--help"])
    assert code == 0 and "--verify {charsum,pointcount}" in sub_help
    assert _main_in_process(["classnum", "--help"]) == (0, sub_help, "")
    assert cli.build_parser() is not fresh


def test_pointcount_request_tests_irreducibility_once(monkeypatch):
    """build_context proves P irreducible; the point count oracle inside
    compute_report does not test it again."""
    true_test = polyring.is_irreducible
    seen = []

    def counting(f):
        seen.append(format_poly(f))
        return true_test(f)

    for module in (polyring, chars, classnum):
        monkeypatch.setattr(module, "is_irreducible", counting)
    code, out, err = _main_in_process(
        ["classnum", "--q", "3", "--P", "T^4+T+2", "--l", "2", "--verify", "pointcount"]
    )
    assert (code, err) == (0, "")
    assert "methods = digits+pointcount" in out
    assert seen.count("T^4+T+2") == 1


@pytest.mark.parametrize("argv", [
    # G = T+1 divides P = (T+1)(T^18+T^17+...+1) over F_2, and is nilpotent
    # mod P = (T+1)^2 over F_3
    ["--q", "2", "--P", "T^19+T^2+T+1", "--G", "T+1", "--l", "1"],
    ["--q", "3", "--P", "T^2+2*T+1", "--G", "T+1", "--l", "2"],
])
def test_reducible_modulus_is_refused_before_the_division(monkeypatch, argv):
    """build_context tests P for irreducibility before any division step: a
    zero divisor G mod a reducible P would otherwise walk all r steps, and a
    nilpotent G would reach a zero power."""
    monkeypatch.setattr(polyring._Modulus, "walk", _no_work)
    assert _main_in_process(["classnum", *argv]) == (3, "", "error: P must be irreducible\n")


def test_sweep_splits_each_modulus_once(monkeypatch):
    """sweep lists its P by the irreducible sieve; the one distinct-degree
    split per P is build_context's irreducibility check."""
    true_split = polyring._factor_degrees
    seen = []

    def counting(m):
        seen.append(format_poly(m))
        return true_split(m)

    monkeypatch.setattr(polyring, "_factor_degrees", counting)
    code, out, err = _main_in_process(["sweep", "--q", "3", "--d", "4"])
    assert (code, err) == (0, "")
    assert len(seen) == len(set(seen)) == 18


def _no_work(*args, **kwargs):
    raise AssertionError("a refused request did work")


@pytest.mark.parametrize("argv, message", [
    # 3 divides neither 3^12 - 1 nor 2^19 - 1
    (["--q", "3", "--P", "T^12+T^2+2", "--l", "3"], "l = 3 does not divide N = 531440"),
    (["--q", "2", "--P", "T^19+T^5+T^2+T+1", "--l", "3"], "l = 3 does not divide N = 524287"),
    # ahead of the refusals of a reducible P and of a non-primitive G
    (["--q", "3", "--P", "T^2+2", "--l", "3"], "l = 3 does not divide N = 8"),
    (["--q", "3", "--P", "T^2+1", "--G", "T", "--l", "3"], "l = 3 does not divide N = 8"),
    # ahead of the point count's work bound
    (["--q", "3", "--P", "T^12+T^2+2", "--l", "3", "--verify", "pointcount"],
     "l = 3 does not divide N = 531440"),
    # q^0 - 1 = 0 is divisible by every l: P is refused ahead of the norm degree
    (["--q", "3", "--P", "1", "--l", "1009"], "P must be monic of positive degree"),
    (["--q", "3", "--P", "2*T^2+1", "--l", "3"], "P must be monic of positive degree"),
    # a constant or zero P is refused as such, before the lift
    (["--q", "3", "--P", "1", "--l", "2"], "P must be monic of positive degree"),
    (["--q", "3", "--P", "0", "--l", "2"], "P must be monic of positive degree"),
])
def test_classnum_refuses_before_the_context(monkeypatch, argv, message):
    """Refusals that need no context come before the lift, the division
    and any norm: a P that is not monic of positive degree and an l not
    dividing N."""
    monkeypatch.setattr(cli, "canonical_primitive_lift", _no_work)
    monkeypatch.setattr(cli, "build_context", _no_work)
    monkeypatch.setattr(classnum, "_digit_norm", _no_work)
    assert _main_in_process(["classnum", *argv]) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, l, g", [
    (["--q", "3", "--P", "T^12+T^2+2", "--l", "4", "--verify", "pointcount"], 4, 15),
    # even q, l = 5 not dividing q - 1
    (["--q", "2", "--P", "T^12+T^6+T^5+T^3+1", "--l", "5", "--verify", "pointcount"], 5, 20),
])
def test_classnum_refuses_point_count_over_bound_before_the_context(monkeypatch, argv, l, g):
    """A --verify pointcount whose sum of q^f over f <= g passes
    POINT_COUNT_BOUND exits 4 before the lift, the division and any norm."""
    monkeypatch.setattr(cli, "canonical_primitive_lift", _no_work)
    monkeypatch.setattr(cli, "build_context", _no_work)
    monkeypatch.setattr(classnum, "_digit_norm", _no_work)
    start = time.monotonic()
    code, out, err = _main_in_process(["classnum", *argv])
    assert time.monotonic() - start < 0.5
    assert (code, out) == (4, "")
    assert err == (f"error: the point count for l = {l} has genus {g}: it sieves "
                   f"sum_(f <= g) q^f polynomials, over the bound {cli.POINT_COUNT_BOUND}\n")
