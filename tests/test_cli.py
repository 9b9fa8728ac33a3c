"""Config parsing, trace files, and the command line entry points."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vistep import CheckRow, VerificationReport, gen_quadratic_vi, importance_weights
from vistep.cli import (
    ConfigError,
    REPORT_COLUMNS,
    SWEEP_COLUMNS,
    TRACE_COLUMNS,
    build_estimator,
    build_problem,
    exit_code_for,
    main,
    parse_config_text,
    read_trace,
)

PVB_RUN = """\
# small game, deterministic snapshot strategy
problem.kind = pvb
problem.n = 3
problem.seed = 1

run.estimator = vr
run.K = 40
run.seed = 7
run.gap_every = 10
"""

MIXING = """\
problem.kind = mixing
problem.d = 6
problem.mu = 0.5
problem.L = 2.0
problem.workers = 3
problem.lambda = 1.0
problem.seed = 11
"""


def test_parse_types_comments_and_defaults():
    cfg = parse_config_text(
        "# leading comment\n"
        "\n"
        "problem.kind = pvb\n"
        "problem.n = 4   # trailing comment\n"
        "problem.theta = 0.25\n"
        "run.estimator = vr\n"
        "run.K = 40\n"
        "run.gamma = auto\n"
    )
    assert cfg.entries[("problem", "n")] == 4
    assert cfg.entries[("problem", "theta")] == 0.25
    assert cfg.entries[("run", "gamma")] is None
    assert cfg.get("run", "gap_every") == 1
    assert cfg.get("run", "regime") == "mono"
    assert cfg.get("sweep", "estimators") is None


def test_echo_lines_reparse_to_the_same_config():
    cfg = parse_config_text(PVB_RUN + "run.gamma = 0.012345678901234567\nrun.tau = auto\n")
    echoed = parse_config_text("\n".join(cfg.echo_lines()))
    assert echoed.entries == cfg.entries


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("run.K = 5\nbogus line\n")
    with pytest.raises(ConfigError, match="section prefix"):
        parse_config_text("nodots = 3\n")
    with pytest.raises(ConfigError, match="line 1: unknown key"):
        parse_config_text("problem.zzz = 1\n")
    with pytest.raises(ConfigError, match="needs an integer"):
        parse_config_text("run.K = ten\n")
    with pytest.raises(ConfigError, match="needs a number"):
        parse_config_text("problem.theta = warm\n")
    with pytest.raises(ConfigError, match="must be one of"):
        parse_config_text("problem.kind = banana\n")
    with pytest.raises(ConfigError, match="must be one of"):
        parse_config_text("run.estimator = newton\n")
    for n_samples in ("1", "-5"):
        with pytest.raises(ConfigError, match="line 2: verify.n_samples must be 0 or at least 2"):
            parse_config_text(f"verify.n_points = 2\nverify.n_samples = {n_samples}\n")
    below_least = {
        "run.K = -1": "run.K must be at least 0, got -1",
        "verify.n_points = 0": "verify.n_points must be at least 1, got 0",
        "problem.d = 0": "problem.d must be at least 1, got 0",
        "run.gap_every = 0": "run.gap_every must be at least 1, got 0",
        "run.randk_k = 0": "run.randk_k must be at least 1, got 0",
        "problem.n = 0": "problem.n must be at least 1, got 0",
        "problem.workers = 0": "problem.workers must be at least 1, got 0",
        "problem.seed = -3": "problem.seed must be at least 0, got -3",
        "run.seed = -1": "run.seed must be at least 0, got -1",
    }
    for line, message in below_least.items():
        with pytest.raises(ConfigError, match=f"line 2: {message}"):
            parse_config_text(f"problem.kind = pvb\n{line}\n")
    for key in ("run.sigma", "problem.theta", "run.gamma", "run.tau_split"):
        for value in ("nan", "inf", "-inf", "NaN", "Infinity"):
            with pytest.raises(ConfigError, match=f"line 2: {key} must be finite, got '{value}'"):
                parse_config_text(f"problem.kind = pvb\n{key} = {value}\n")
    assert parse_config_text("run.gamma = auto\n").get("run", "gamma") is None


def test_repeated_key_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="^line 2: duplicate key problem.n$"):
        parse_config_text("problem.n = 3\nproblem.n = 4\n")
    with pytest.raises(ConfigError, match="line 4: duplicate key run.gamma"):
        parse_config_text("run.gamma = auto\n# comment\n\nrun.gamma = 0.1\n")
    twice = tmp_path / "twice.cfg"
    twice.write_text("problem.kind = pvb\nproblem.n = 2\nrun.estimator = vr\nrun.K = 3\nrun.K = 4\n")
    assert main(["run", "-c", str(twice), "-o", str(tmp_path / "t.csv")]) == 1
    assert "config error: line 5: duplicate key run.K" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_require_reports_missing_keys():
    cfg = parse_config_text("problem.kind = pvb\n")
    with pytest.raises(ConfigError, match="problem.n"):
        cfg.require("problem", "n")


def test_build_problem_variants():
    pvb = build_problem(parse_config_text("problem.kind = pvb\nproblem.n = 2\n"))
    assert pvb.meta["kind"] == "pvb"
    assert pvb.d == 8
    quad = build_problem(
        parse_config_text("problem.kind = quadratic\nproblem.d = 6\nproblem.mu = 0.5\nproblem.L = 2.0\n")
    )
    assert quad.meta["kind"] == "quadratic"
    assert quad.L == 2.0
    mix = build_problem(parse_config_text(MIXING))
    assert mix.meta["kind"] == "mixing"
    assert mix.d == 18
    # worker instances get consecutive seeds off the problem seed
    want = gen_quadratic_vi(6, 0.5, 2.0, seed=12).payload.mat
    np.testing.assert_array_equal(mix.payload.base[1].payload.mat, want)


def test_build_estimator_rules():
    p = build_problem(parse_config_text("problem.kind = pvb\nproblem.n = 3\n"))
    base = "problem.kind = pvb\nproblem.n = 3\n"
    with pytest.raises(ConfigError, match="randk_k"):
        build_estimator(parse_config_text(base + "run.estimator = quant\nrun.quantizer = randk\n"), p)
    kind = build_estimator(
        parse_config_text(base + "run.estimator = quant\nrun.quantizer = randk\nrun.randk_k = 3\n"), p
    )
    assert kind.quantizer.kind == "randk"
    assert kind.quantizer.k == 3
    assert kind.quantizer.d == p.d
    with pytest.raises(ConfigError, match="^run.randk_k = 19 exceeds the problem dimension d = 18$"):
        build_estimator(parse_config_text(base + "run.estimator = quant\nrun.quantizer = randk\nrun.randk_k = 19\n"), p)
    kind = build_estimator(parse_config_text(base + "run.estimator = is\nrun.weights = lipschitz\n"), p)
    np.testing.assert_allclose(kind.weights, importance_weights(p.L_m), atol=1e-15)
    kind = build_estimator(parse_config_text(base + "run.estimator = is\n"), p)
    np.testing.assert_allclose(kind.weights, np.full(3, 1.0 / 3.0), atol=0)
    kind = build_estimator(parse_config_text(base + "run.estimator = noisy\nrun.sigma = 0.4\n"), p)
    assert kind.sigma == 0.4
    mix = build_problem(parse_config_text(MIXING))
    kind = build_estimator(parse_config_text(MIXING + "run.estimator = local\n"), mix)
    assert kind.tau_split == pytest.approx(2.0 / 3.0, rel=1e-12)
    with pytest.raises(ConfigError, match="mixing"):
        build_estimator(parse_config_text(base + "run.estimator = local\n"), p)


def test_local_needs_a_mixing_payload_not_just_an_l_phi():
    # the CLI asks the estimators' own check, so a look-alike payload is refused
    p = build_problem(parse_config_text("problem.kind = pvb\nproblem.n = 2\n"))
    look_alike = dataclasses.replace(p, payload=SimpleNamespace(l_phi=1.0, lam=1.0, dim=p.d, ratios=p.payload.ratios))
    for split in ("auto", "0.5"):
        cfg = parse_config_text(f"run.estimator = local\nrun.tau_split = {split}\n")
        with pytest.raises(ConfigError, match="^local estimator requires a mixing problem$"):
            build_estimator(cfg, look_alike)


def test_run_writes_reproducible_traces(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PVB_RUN)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "-c", str(cfg), "-o", str(out1)]) == 0
    assert main(["run", "-c", str(cfg), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().splitlines()
    assert lines[0] == "# vistep trace"
    assert ",".join(TRACE_COLUMNS) in lines
    tf = read_trace(str(out1))
    np.testing.assert_array_equal(tf.columns["k"], np.arange(41))
    assert tf.columns["full_calls"].dtype == np.int64

    # the embedded config reproduces the file byte for byte
    cfg2 = tmp_path / "echoed.cfg"
    cfg2.write_text(tf.config_text + "\n")
    out3 = tmp_path / "c.csv"
    assert main(["run", "-c", str(cfg2), "-o", str(out3)]) == 0
    assert out3.read_bytes() == out1.read_bytes()


def test_read_trace_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("k,full_calls\n0,1\n")
    with pytest.raises(ValueError, match="unexpected columns"):
        read_trace(str(bad_header))
    short_row = tmp_path / "r.csv"
    short_row.write_text(",".join(TRACE_COLUMNS) + "\n1,2,3\n")
    with pytest.raises(ValueError, match="malformed row"):
        read_trace(str(short_row))
    bad_cell = tmp_path / "c.csv"
    good_row = ",".join(["1"] * len(TRACE_COLUMNS))
    bad_row = ",".join(["1"] * (len(TRACE_COLUMNS) - 1) + ["0.2766abc"])
    bad_cell.write_text(",".join(TRACE_COLUMNS) + f"\n{good_row}\n{bad_row}\n")
    with pytest.raises(ValueError, match=re.escape(f"trace file {bad_cell} has a bad {TRACE_COLUMNS[-1]} cell in data row 2: '0.2766abc'")):
        read_trace(str(bad_cell))
    empty = tmp_path / "e.csv"
    empty.write_text("# vistep trace\n# config-begin\n# config-end\n")
    header_only = tmp_path / "ho.csv"
    header_only.write_text("# vistep trace\n# config-begin\n# config-end\n" + ",".join(TRACE_COLUMNS) + "\n")
    for path in (empty, header_only):
        with pytest.raises(ValueError, match=re.escape(f"trace file {path} has no data rows")):
            read_trace(str(path))


def test_sweep_command(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "problem.kind = pvb\nproblem.n = 2\nrun.K = 5\nsweep.estimators = fulldet, vr ,past\n"
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "-c", str(cfg), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 4
    assert [ln.split(",")[0] for ln in lines[1:]] == ["fulldet", "vr", "past"]

    cfg.write_text("problem.kind = pvb\nproblem.n = 2\nrun.K = 5\nsweep.estimators = ,\n")
    assert main(["sweep", "-c", str(cfg), "-o", str(out)]) == 1


def test_verify_command_writes_report(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(
        "problem.kind = pvb\nproblem.n = 2\nverify.estimators = vr,coord\nverify.n_points = 2\n"
    )
    out = tmp_path / "report.csv"
    assert main(["verify", "-c", str(cfg), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 7  # one unbiasedness row and two moment rows per strategy
    assert all(ln.split(",")[-1] == "1" for ln in lines[1:])
    # without -o the same table lands on stdout
    assert main(["verify", "-c", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == ",".join(REPORT_COLUMNS)


def test_exit_code_for_failing_report():
    bad = CheckRow("unbiased", "vr", 2.0, 1.0, 2.0, 5, False)
    assert exit_code_for(VerificationReport([bad])) == 3
    assert exit_code_for(VerificationReport([])) == 0


def test_report_command(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PVB_RUN.replace("run.estimator = vr", "run.estimator = fulldet"))
    out = tmp_path / "trace.csv"
    assert main(["run", "-c", str(cfg), "-o", str(out)]) == 0
    assert main(["report", "-i", str(out)]) == 0
    text = capsys.readouterr().out
    assert "rows = 41" in text
    assert "iterations = 40" in text
    assert "full_calls = 80" in text
    assert "best_gap_avg = " in text


def test_main_exit_codes(tmp_path, capsys):
    assert main(["gen", "-c", str(tmp_path / "missing.cfg")]) == 1
    cfg = tmp_path / "no_k.cfg"
    cfg.write_text("problem.kind = pvb\nproblem.n = 2\nrun.estimator = vr\n")
    assert main(["run", "-c", str(cfg), "-o", str(tmp_path / "x.csv")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem.kind = quadratic\nproblem.d = 4\nproblem.mu = 3.0\nproblem.L = 1.0\n")
    assert main(["gen", "-c", str(bad)]) == 2
    one_draw = tmp_path / "one_draw.cfg"
    one_draw.write_text("problem.kind = pvb\nproblem.n = 2\nverify.estimators = vr\nverify.n_samples = 1\n")
    assert main(["verify", "-c", str(one_draw)]) == 1
    assert "line 4: verify.n_samples" in capsys.readouterr().err
    no_points = tmp_path / "no_points.cfg"
    no_points.write_text("problem.kind = pvb\nproblem.n = 2\nverify.estimators = vr\nverify.n_points = 0\n")
    assert main(["verify", "-c", str(no_points)]) == 1
    assert "line 4: verify.n_points must be at least 1" in capsys.readouterr().err
    split_on_game = tmp_path / "split_on_game.cfg"
    for split in ("auto", "0.5"):
        split_on_game.write_text(
            f"problem.kind = pvb\nproblem.n = 2\nrun.estimator = local\nrun.K = 3\nrun.tau_split = {split}\n"
        )
        assert main(["run", "-c", str(split_on_game), "-o", str(tmp_path / "s.csv")]) == 1
        assert "config error: local estimator requires a mixing problem" in capsys.readouterr().err
    wide_randk = tmp_path / "wide_randk.cfg"
    wide_randk.write_text(
        "problem.kind = pvb\nproblem.n = 3\nrun.estimator = quant\nrun.K = 3\n"
        "run.quantizer = randk\nrun.randk_k = 1000\n"
    )
    assert main(["run", "-c", str(wide_randk), "-o", str(tmp_path / "q.csv")]) == 1
    assert "config error: run.randk_k = 1000 exceeds the problem dimension d = 18" in capsys.readouterr().err
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("problem.kind = pvb\nproblem.n = 2\nverify.estimators = bogus\n")
    assert main(["verify", "-c", str(unknown)]) == 1
    assert "config error: unknown estimator 'bogus'" in capsys.readouterr().err
    diverging = tmp_path / "diverging.cfg"
    diverging.write_text(
        "problem.kind = quadratic\nproblem.d = 10\nproblem.mu = 0.1\nproblem.L = 1.0\n"
        "run.estimator = fulldet\nrun.K = 1000\nrun.regime = sm\nrun.gamma = 5\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "-c", str(diverging), "-o", str(tmp_path / "d.csv")]) == 2
    assert "error: iterate is not finite at k=311 with gamma=5" in capsys.readouterr().err
    good = tmp_path / "good.cfg"
    good.write_text("problem.kind = pvb\nproblem.n = 2\n")
    capsys.readouterr()
    assert main(["gen", "-c", str(good)]) == 0
    text = capsys.readouterr().out
    assert "kind = pvb" in text
    assert "blocks = 4,4" in text
    assert "L_m = " in text


def _src_first_env() -> dict:
    """This environment with the checkout's src first on PYTHONPATH, so a
    child interpreter imports vistep without an install."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not rest else os.pathsep.join((src, rest))}


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("problem.kind = pvb\nproblem.n = 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "vistep.cli", "gen", "-c", str(cfg)],
        capture_output=True,
        text=True,
        env=_src_first_env(),
    )
    assert proc.returncode == 0
    assert "kind = pvb" in proc.stdout


def test_import_leaves_scipy_optimize_unloaded():
    # nothing in the package imports scipy, not even the quadratic generator's root find
    code = (
        "import sys, vistep, vistep.cli; print('scipy.optimize' in sys.modules); "
        "vistep.gen_quadratic_vi(20, 0.2, 1.0); print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_first_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
