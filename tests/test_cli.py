import contextlib
import io
import json
import subprocess
import sys
import time

from carlitzdigits import chars, classnum, cli, polyring

from carlitzdigits.digits import DigitExpansion, digit_expand
from carlitzdigits.ffq import FieldSpec
from carlitzdigits.polyring import Poly, format_poly, parse_poly


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "carlitzdigits", *argv],
        capture_output=True, text=True,
    )


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


def test_order_stepping_bound():
    # a reducible degree-16 modulus over F_9: stepping would take ~10^15 powers
    start = time.monotonic()
    res = run_cli("expand", "--q", "9", "--den", "T^16+T+2", "--G", "T+1", "--terms", "3")
    assert time.monotonic() - start < 10
    assert res.returncode == 4
    assert res.stdout == ""
    assert "bound" in res.stderr


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

    for module in (polyring, chars, classnum, cli):
        monkeypatch.setattr(module, "is_irreducible", counting)
    code, out, err = _main_in_process(
        ["classnum", "--q", "3", "--P", "T^4+T+2", "--l", "2", "--verify", "pointcount"]
    )
    assert (code, err) == (0, "")
    assert "methods = digits+pointcount" in out
    assert seen.count("T^4+T+2") == 1
