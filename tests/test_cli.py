import os
import subprocess
import sys

import json

import pytest

from eprsat import audit, cli
from eprsat.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_sat_exit_code(tmp_path):
    p = tmp_path / "p.p"
    p.write_text("domain a b .\nP(X) .\n")
    assert main(["--input", str(p)]) == 10


def test_unsat_exit_code(tmp_path):
    p = tmp_path / "p.p"
    p.write_text("domain a .\nfalse .\n")
    assert main(["--input", str(p)]) == 20


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "p.p"
    p.write_text("P(X) .\n")  # no domain declaration
    assert main(["--input", str(p)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_input_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert "one of the arguments --input --bench is required" in capsys.readouterr().err


def test_input_and_bench_together_exit_1(capsys):
    # one problem source: --bench does not silently win over --input
    with pytest.raises(SystemExit) as exc:
        main(["--input", os.path.join(DATA, "ex33.p"), "--bench", "3,3"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "argument --bench: not allowed with argument --input" in err


def test_step_cap_exit_code(tmp_path, capsys):
    assert main(["--input", os.path.join(DATA, "ex33.p"),
                 "--max-steps", "3"]) == 1
    assert "step cap" in capsys.readouterr().err


def test_trace_and_model_files(tmp_path):
    trace = tmp_path / "t.txt"
    model = tmp_path / "m.txt"
    code = main(["--input", os.path.join(DATA, "ex33.p"),
                 "--script", os.path.join(DATA, "ex33.dec"),
                 "--trace", str(trace), "--model", str(model)])
    assert code == 10
    golden = open(os.path.join(DATA, "ex33.trace.golden")).read()
    assert trace.read_text() == golden
    assert model.read_text().startswith("% model\n")


@pytest.mark.parametrize("flag", ["--trace", "--model"])
def test_an_unwritable_output_file_exits_1(tmp_path, capsys, flag):
    # the write comes after the solve (a sat one, so a model is written):
    # one error line naming the file, and no traceback
    out = tmp_path / "missing" / "out.txt"
    code = main(["--input", os.path.join(DATA, "ex33.p"),
                 "--script", os.path.join(DATA, "ex33.dec"), flag, str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err


def test_check_mode_agrees(tmp_path):
    p = tmp_path / "p.p"
    p.write_text("domain a b .\nP(X) | Q(X) .\n-P(a) .\n")
    assert main(["--input", str(p), "--check"]) == 10


def test_check_mode_unsat(tmp_path):
    p = tmp_path / "p.p"
    p.write_text("domain a .\nP(a) .\n-P(a) .\n")
    assert main(["--input", str(p), "--check"]) == 20


def test_check_mode_verifies_a_sat_model_once(monkeypatch, capsys):
    """The audit's verification at Success is the one the check reports,
    and the command line keeps no fallback of its own: a sat `--check` run
    calls `verify_model` once, and a model it rejects still fails the check."""
    assert not hasattr(cli, "verify_model")
    calls = []
    real = audit.verify_model

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(audit, "verify_model", counted)
    assert main(["--input", os.path.join(DATA, "ex33.p"), "--check"]) == 10
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["model_verified"] is True

    def rejecting(model, sig, clauses):
        calls.append(model)
        return False, clauses[0]

    calls.clear()
    monkeypatch.setattr(audit, "verify_model", rejecting)
    assert main(["--input", os.path.join(DATA, "ex33.p"), "--check"]) == 2
    assert len(calls) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["model_verified"] is False
    assert "check: model fails on" in captured.err


def test_check_mode_grounds_the_input_once(monkeypatch, capsys):
    """The oracle reads the audit's grounding of the input: a `--check`
    replay of `ex33` calls `ground_problem` once for the input and once per
    learned clause for the pool, wherever `audit` and `cli` bind it."""
    calls = []
    real = audit.ground_problem

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (audit, cli):
        if hasattr(mod, "ground_problem"):
            monkeypatch.setattr(mod, "ground_problem", counted)
    assert main(["--input", os.path.join(DATA, "ex33.p"),
                 "--script", os.path.join(DATA, "ex33.dec"), "--check"]) == 10
    record = json.loads(capsys.readouterr().out)
    assert record["verdict_oracle"] == "sat"
    assert len(calls) == 1 + record["learned"] == 3


def test_check_mode_over_the_oracle_ceiling_skips_the_oracle(tmp_path, capsys):
    # 8 constants: P/2 and Q/1 have 72 ground atoms, over the oracle's 60
    p = tmp_path / "p.p"
    p.write_text("domain a b c d e f g h .\nP(X,Y) | Q(X) .\n")
    assert main(["--input", str(p), "--check"]) == 10
    captured = capsys.readouterr()
    assert "check: oracle skipped (ground universe has 72 atoms" in captured.err
    record = json.loads(captured.out)
    assert record["verdict_oracle"] is None
    # the audit verified the model at Success, oracle or not
    assert record["model_verified"] is True


def test_check_mode_fails_when_the_oracle_disagrees(tmp_path, monkeypatch, capsys):
    p = tmp_path / "p.p"
    p.write_text("domain a b .\nP(X) | Q(X) .\n-P(a) .\n")
    monkeypatch.setattr(cli, "brute_sat", lambda gp: None)
    assert main(["--input", str(p), "--check"]) == 2
    captured = capsys.readouterr()
    assert "check: verdict sat but oracle says unsat" in captured.err
    assert json.loads(captured.out)["verdict_oracle"] == "unsat"


def test_bench_flag_with_check(capsys):
    assert main(["--bench", "3,3", "--check"]) == 10
    record = json.loads(capsys.readouterr().out)
    assert {"seed", "verdict_nrcl", "verdict_oracle", "steps", "learned",
            "audits_passed"} <= set(record)


def test_bench_bad_format(capsys):
    assert main(["--bench", "oops"]) == 1


@pytest.mark.parametrize("value", ["5", "2,2,2", ",3"])
def test_bench_not_two_integers_names_the_format(capsys, value):
    assert main(["--bench", value]) == 1
    assert capsys.readouterr().err == (
        f"error: --bench expects N,K (two integers), got '{value}'\n")


def test_no_index_and_seed_flags(tmp_path):
    assert main(["--input", os.path.join(DATA, "ex33.p"),
                 "--seed", "5"]) == 10
    # the watched-literal flags are gone: a usage error, not a failed check
    for flag in ("--index", "--no-index"):
        with pytest.raises(SystemExit) as exc:
            main(["--input", os.path.join(DATA, "ex33.p"), flag])
        assert exc.value.code == 1


def test_usage_errors_exit_1(capsys):
    for argv in (["--bogus"], ["--seed", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_nonpositive_step_cap_exit_code(capsys):
    assert main(["--bench", "3,3", "--max-steps", "0"]) == 1
    assert "error: step cap must be positive" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "eprsat.cli", "--bench", "2,2"],
        capture_output=True,
    )
    assert proc.returncode == 10


def test_rejected_script_decision_exits_1(tmp_path, capsys):
    # the second decision covers atoms the first one already defined
    script = tmp_path / "dup.dec"
    script.write_text("P(X,Y,Z) :: X != c\nP(X,Y,Z) :: X != c\n")
    code = main(["--input", os.path.join(DATA, "ex33.p"),
                 "--script", str(script)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: decision script rejected: decision covers a defined atom\n"


def test_malformed_script_line_exits_1(tmp_path, capsys):
    script = tmp_path / "bad.dec"
    script.write_text("P(X,Y,Z) :: W != c\n")
    code = main(["--input", os.path.join(DATA, "ex33.p"),
                 "--script", str(script)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: 1:13: lhs variable 'W' is not in the literal")


def test_script_line_with_an_rhs_literal_variable_exits_1(tmp_path, capsys):
    script = tmp_path / "bad.dec"
    script.write_text("P(X,Y,Z) :: (X,Y) != (Y,Y)\n")
    code = main(["--input", os.path.join(DATA, "ex33.p"),
                 "--script", str(script)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: 1:23: rhs variable 'Y' occurs in the literal\n")


def _run_without_asserts(*args):
    """`python -O -m eprsat.cli *args`: every `assert` is gone."""
    src = os.path.join(os.path.dirname(DATA), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-O", "-m", "eprsat.cli", *args],
                          capture_output=True, text=True, env=env)


def test_rhs_variable_repeated_across_disequations_runs(tmp_path):
    # right-hand-side variables are local to their disequation, so a shared
    # name reads like two names, with and without asserts
    problem = tmp_path / "p.p"
    problem.write_text("domain a b c . P(X,Y,Z) | Q(X,Y,Z) . -P(X,X,Y) | R(X) .\n")
    for rhs in ("V", "W"):
        script = tmp_path / f"{rhs}.dec"
        script.write_text(f"P(X,Y,Z) :: (X,Y) != (V,V) /\\ (Y,Z) != ({rhs},{rhs})\n")
        args = ["--input", str(problem), "--script", str(script), "--check"]
        assert main(args) == 10
        proc = _run_without_asserts(*args)
        assert proc.returncode == 10, proc.stderr


def test_outcomes_do_not_depend_on_asserts(tmp_path):
    # under `python -O` every `assert` is gone; the golden replay and the
    # rejection of a malformed script line must come out the same
    def run(*args):
        return _run_without_asserts("--input", os.path.join(DATA, "ex33.p"), *args)

    trace = tmp_path / "t.txt"
    proc = run("--script", os.path.join(DATA, "ex33.dec"), "--trace", str(trace))
    assert proc.returncode == 10, proc.stderr
    golden = open(os.path.join(DATA, "ex33.trace.golden")).read()
    assert trace.read_text() == golden
    script = tmp_path / "bad.dec"
    script.write_text("P(X,Y,Z) :: (X,Y) != (Y,Y)\n")
    proc = run("--script", str(script))
    assert proc.returncode == 1
    assert proc.stderr == "error: 1:23: rhs variable 'Y' occurs in the literal\n"
