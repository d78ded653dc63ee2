import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import skewlocal
from skewlocal.cli import main
from skewlocal.parsing import parse_rule_text


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_construct_example(capsys):
    status, out, err = run(capsys, "skew-construct", "--set", "1,1,1,0,1,0")
    assert status == 0
    assert err == ""
    assert out == "field: Q\nprec: t1=exact t2=exact\nC = t1 + t2\n"


def test_construct_structured(capsys):
    status, out, err = run(
        capsys, "skew-construct", "--set", "1,1,1,0,1,0", "--format", "structured"
    )
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "schema = skewlocal/1"
    assert "C = t1 + t2" in lines


def test_construct_infinite(capsys):
    status, out, err = run(capsys, "skew-construct", "--set", "2,-1,inf")
    assert status == 0
    assert "C = -t1" in out


def test_dubrovin_example(capsys):
    status, out, err = run(capsys, "dubrovin", "--expr", "y*x")
    assert status == 0
    assert out == "x*y - z\nw = 0\n"


def test_dubrovin_valuation(capsys):
    status, out, err = run(capsys, "dubrovin", "--expr", "x*y - y*x")
    assert out == "z\nw = 1\n"


def test_autonorm_example(capsys):
    status, out, err = run(
        capsys, "autonorm", "--field", "Q", "--series", "t + t^2", "--prec", "16"
    )
    assert status == 0
    lines = out.splitlines()
    assert "zeta = 1" in lines
    assert "n = 1" in lines
    assert "i_alpha = 2" in lines
    assert any(line.startswith("conjugator = ") for line in lines)
    assert "# precision: t = 16 (command line)" in lines


def test_psido_basic(capsys):
    status, out, err = run(capsys, "psido", "--expr", "D*X")
    assert status == 0
    assert "value = X*D + 1" in out.splitlines()
    assert "order = -1" in out.splitlines()


def test_psido_order_skips_entries_zero_to_x_precision(capsys):
    status, out, err = run(capsys, "psido", "--expr", "(1+X)^-1*D - (1+X)^-1*D", "--depth", "4")
    assert status == 0
    assert out.splitlines()[:2] == ["value = O(X^24)*D + O(D^-3)", "order = infinity"]


def test_psido_to_skew_documents_sign(capsys):
    status, out, err = run(capsys, "psido", "--expr", "X", "--to-skew")
    lines = out.splitlines()
    assert "sign = t2 = -D^-1" in lines
    assert "C = t1 + t2" in lines


def test_rule_file_pipeline(capsys, tmp_path):
    rule = tmp_path / "rule.txt"
    rule.write_text("field: Q\nprec: t1=exact t2=9\nC = t1 + t1*t2 + t2^3\n")
    status, out, err = run(capsys, "skew-invariants", "--rule", str(rule))
    assert status == 0
    lines = out.splitlines()
    for want in ("n = 1", "xi = 1", "i = 1", "r = 0", "c = 1", "a = -1"):
        assert want in lines
    assert "# precision: t2 = 9 (rule file)" in lines


def test_canonicalize_round_trip(capsys, tmp_path):
    rule = tmp_path / "rule.txt"
    rule.write_text("field: Q\nprec: t1=exact t2=9\nC = t1 + t1*t2 + t2^3\n")
    status, out, err = run(
        capsys, "skew-canonicalize", "--rule", str(rule), "--format", "structured"
    )
    assert status == 0
    lines = dict(
        line.split(" = ", 1) for line in out.splitlines() if " = " in line
    )
    assert lines["schema"] == "skewlocal/1"
    assert lines["C"].startswith("t1 + t2 - t1^-1*t2^2")
    assert lines["changes"] == "7"
    # the printed C re-parses under the rule grammar
    again = parse_rule_text("field: Q\nprec: t1=exact t2=exact\nC = %s" % lines["C"])
    assert again.coeffs[1].coeff(0) == again.field.one()


def test_isomorphic_verdicts(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("field: Q\nprec: t1=exact t2=9\nC = t1 + t1*t2 + t2^3\n")
    b.write_text("field: Q\nprec: t1=exact t2=exact\nC = t1 + t2\n")
    status, out, err = run(capsys, "skew-isomorphic", "--rule", str(a), "--other", str(b))
    assert status == 0
    assert out == "verdict = no\n"
    status, out, err = run(capsys, "skew-isomorphic", "--rule", str(a), "--other", str(a))
    assert out == "verdict = yes\n"


def test_rule_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        sys, "stdin", io.StringIO("field: Q\nprec: t1=exact t2=exact\nC = t1 + t2\n")
    )
    status, out, err = run(capsys, "skew-invariants", "--rule", "-")
    assert status == 0
    assert "i = 1" in out.splitlines()


def test_errors_go_to_stderr(capsys):
    status, out, err = run(capsys, "dubrovin", "--expr", "x + !")
    assert status == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "position" in err


def test_missing_file_is_an_error(capsys, tmp_path):
    status, out, err = run(capsys, "skew-invariants", "--rule", str(tmp_path / "nope"))
    assert status == 1
    assert out == ""
    assert "error:" in err


def test_inadmissible_set_is_an_error(capsys):
    status, out, err = run(capsys, "skew-construct", "--set", "2,1,2,1,1,0")
    assert status == 1
    assert "error:" in err


def test_non_integer_set_entry_is_an_error(capsys):
    status, out, err = run(capsys, "skew-construct", "--set", "1,1,x,0,1,0")
    assert (status, out) == (1, "")
    assert err.startswith("error: ") and "'x'" in err


def test_rule_without_c0_is_an_error(capsys, tmp_path):
    rule = tmp_path / "rule.txt"
    for body in ("t2 + t1*t2^2", "0"):
        rule.write_text("field: Q\nC = %s\n" % body)
        status, out, err = run(capsys, "skew-invariants", "--rule", str(rule))
        assert (status, out) == (1, "")
        assert err.startswith("error: ") and "c_0" in err


def test_deep_nesting_is_an_error(capsys):
    for text in ("(" * 3000 + "t" + ")" * 3000, "-" * 3000 + "t"):
        status, out, err = run(capsys, "autonorm", "--series=" + text)
        assert (status, out) == (1, "")
        assert err.startswith("error: ") and "nested" in err


def test_env_var_overrides_default_prec(capsys, monkeypatch):
    monkeypatch.setenv("SKEWLOCAL_PREC", "10")
    status, out, err = run(capsys, "autonorm", "--series", "t + t^2")
    assert status == 0
    assert "# precision: t = 10 (SKEWLOCAL_PREC)" in out.splitlines()
    monkeypatch.setenv("SKEWLOCAL_PREC", "junk")
    status, out, err = run(capsys, "autonorm", "--series", "t + t^2")
    assert status == 1
    assert "SKEWLOCAL_PREC" in err


def test_flag_beats_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SKEWLOCAL_PREC", "10")
    status, out, err = run(
        capsys, "autonorm", "--series", "t + t^2", "--prec", "12"
    )
    assert "# precision: t = 12 (command line)" in out.splitlines()


def test_console_entry_point():
    # the child process runs the package this suite imports, installed or not
    src = str(Path(skewlocal.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-m", "skewlocal", "dubrovin", "--expr", "y*x"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0
    assert proc.stdout == "x*y - z\nw = 0\n"


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"', text, re.M).group(1)
    assert skewlocal.__version__ == declared


RULE = "field: Q\nprec: t1=exact t2=exact\nC = t1 + t2\n"


def assert_rejected(result, name):
    status, out, err = result
    assert status == 1
    assert out == ""
    assert err.startswith("error: ") and name in err


def test_negative_depth_is_rejected(capsys):
    assert_rejected(run(capsys, "psido", "--expr", "D*X", "--depth", "-3"), "--depth")


def test_autonorm_prec_below_two_is_rejected(capsys):
    for prec in ("-3", "1"):
        result = run(capsys, "autonorm", "--series", "t + t^2", "--prec", prec)
        assert_rejected(result, "--prec")
    status, out, err = run(capsys, "autonorm", "--series", "t + t^2", "--prec", "2")
    assert status == 0


def test_negative_rule_precisions_are_rejected(capsys, tmp_path):
    rule = tmp_path / "rule.txt"
    rule.write_text(RULE)
    for flag in ("--prec-t1", "--prec-t2"):
        for cmd in ("skew-invariants", "skew-canonicalize"):
            assert_rejected(run(capsys, cmd, "--rule", str(rule), flag, "-1"), flag)
        result = run(
            capsys, "skew-isomorphic", "--rule", str(rule), "--other", str(rule),
            flag, "-1",
        )
        assert_rejected(result, flag)


def test_negative_env_prec_is_rejected(capsys, monkeypatch):
    monkeypatch.setenv("SKEWLOCAL_PREC", "-1")
    assert_rejected(run(capsys, "psido", "--expr", "X"), "SKEWLOCAL_PREC")
    assert_rejected(run(capsys, "autonorm", "--series", "t + t^2"), "SKEWLOCAL_PREC")
