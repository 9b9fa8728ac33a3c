"""Golden digests: the CLI's output bytes for small fixed configs.

Every strategy is run through ``vistep run`` and the contract checks
through ``vistep verify``; the sha256 of each output file is pinned, as
is that of a ``vistep sweep`` table and of the text ``vistep report`` and
``vistep gen`` print.  A change to any of these bytes must be intentional
and recorded in CHANGES.md together with the new digest.
"""

import hashlib

import numpy as np
import pytest

from vistep import eval_full, run_solver
from vistep.cli import build_estimator, build_problem, build_solver_config, main, parse_config_text

GAME = """\
problem.kind = pvb
problem.n = 3
problem.seed = 1
run.K = 60
run.seed = 3
run.gap_every = 10
run.sigma = 0.05
run.quantizer = {quantizer}
run.randk_k = 4
run.weights = {weights}
"""

# the CLI default: a gap on every row, read off the F values the run has formed
GAME_EVERY_ROW = GAME.replace("run.gap_every = 10\n", "run.gap_every = 1\n")

QUADRATIC = """\
problem.kind = quadratic
problem.d = 20
problem.mu = 0.2
problem.L = 1.0
problem.seed = 2
run.K = 80
run.seed = 4
run.regime = sm
run.quantizer = randk
run.randk_k = 5
"""

MIXING = """\
problem.kind = mixing
problem.d = 6
problem.mu = 0.5
problem.L = 2.0
problem.workers = 3
problem.lambda = 1.0
problem.seed = 5
run.K = 80
run.seed = 6
run.regime = sm
"""

RUNS = {
    "game-fulldet": (GAME, "fulldet", "identity", "uniform"),
    "game-noisy": (GAME, "noisy", "identity", "uniform"),
    "game-past": (GAME, "past", "identity", "uniform"),
    "game-vr": (GAME, "vr", "identity", "uniform"),
    "game-coord": (GAME, "coord", "identity", "uniform"),
    "game-quant-identity": (GAME, "quant", "identity", "uniform"),
    "game-quant-randk": (GAME, "quant", "randk", "uniform"),
    "game-qvr-identity": (GAME, "qvr", "identity", "uniform"),
    "game-qvr-randk": (GAME, "qvr", "randk", "uniform"),
    "game-is-lipschitz": (GAME, "is", "identity", "lipschitz"),
    "game-vr-every-row": (GAME_EVERY_ROW, "vr", "identity", "uniform"),
    "game-past-every-row": (GAME_EVERY_ROW, "past", "identity", "uniform"),
    "quad-fulldet": (QUADRATIC, "fulldet", None, None),
    "quad-vr": (QUADRATIC, "vr", None, None),
    "quad-coord": (QUADRATIC, "coord", None, None),
    "quad-quant": (QUADRATIC, "quant", None, None),
    "mix-local": (MIXING, "local", None, None),
    "mix-fulldet": (MIXING, "fulldet", None, None),
}

# exact rows for every enumerable strategy and Monte Carlo rows for noisy/past;
# the -mc configs draw Monte Carlo rows for every strategy
VERIFY = {
    "verify-game": GAME.format(quantizer="randk", weights="uniform")
    + "verify.estimators = fulldet,noisy,past,vr,is,coord,quant,qvr\nverify.n_points = 3\n",
    "verify-mixing": MIXING + "verify.estimators = local,fulldet\nverify.n_points = 3\n",
    "verify-game-mc": GAME.format(quantizer="randk", weights="uniform")
    + "verify.estimators = fulldet,noisy,past,vr,is,coord,quant,qvr\nverify.n_points = 2\nverify.n_samples = 500\n",
    "verify-mixing-mc": MIXING + "verify.estimators = local\nverify.n_points = 2\nverify.n_samples = 500\n",
}

# every game strategy in one table; the game has no known solution, so the
# dist_sq and lyapunov columns are NaN
SWEEP = GAME.format(quantizer="randk", weights="lipschitz") + (
    "sweep.estimators = fulldet,noisy,past,vr,is,coord,quant,qvr\n"
)

# `vistep report` on a trace with gap columns and on one with NaN gaps
REPORTS = {"report-game": "game-vr", "report-quad": "quad-fulldet"}

GEN = {
    "gen-pvb": GAME.format(quantizer="identity", weights="uniform"),
    "gen-quad": QUADRATIC,
    "gen-mixing": MIXING,
}

DIGESTS = {
    "game-fulldet": "dcbdf409aedc76015033f19a75aa54132356361d29e82b980d1b143310d63096",
    "game-noisy": "143fe3a7fdae16a224165dda92f187cad37de32c48729f5b3ced257fb044df70",
    "game-past": "21f0685c5445230f5d9d7679e1a99cc75293ad3cea0e7c5b4ef9aaffd1c37436",
    "game-vr": "c348673b40828799a57f3b656a77cc7d03fff7f82efb15637f8c02529cd84cae",
    "game-coord": "8efd13eca41109e69643bad3eefb7632ab534127aa436d8753ca8ed5c1ab3e5f",
    "game-quant-identity": "21c47bb9240be23a184709692bc34e7f73099e1d08c7378342062415c458a991",
    "game-quant-randk": "a0e7d3210bb295531cd0ce6aa0d594bf64477f18c3e6d060f61a98303dc20012",
    "game-qvr-identity": "b40da3799cc58483b7c2f75eae254d86855a27b066f78d4cfc35d0bac68ea185",
    "game-qvr-randk": "eff852c8a8934d348f9e7d57ea011fd5a7a62c356fd5f8af90d1122aab68ccf7",
    "game-is-lipschitz": "b803e7ea86d1eacdeb22fbbfd33b0b0c95a075d58e053366649b6e67a6ff776b",
    "game-vr-every-row": "b36e21a3eb5970526660813e057624a2c78d776af42078268b88aaa43747fe50",
    "game-past-every-row": "d3d68daf6a78bfd22d2fcd148a5c9b88bec8fcf04113ceba288e79fedf5d5b9f",
    "quad-fulldet": "c5daa182ff65e43ba7e7ab88501d17a25dc943d71043e0cc3b9090f214c6586c",
    "quad-vr": "5a74182cdaa4deea40111c58086aa5c4c532150d392e01d9098e52ff293080aa",
    "quad-coord": "d3b6f2d5a56ebd624353165b09b87ad6f68bde62450fe4e3e280645df4852d80",
    "quad-quant": "edfb246301156eda578e9e1bea45128318afcd5f68f1fc78ee631e53738f964b",
    "mix-local": "03f0eb3462dbffa64974d0ad78bb0ed53d2454f28ba5adf7adcb687a410bef21",
    "mix-fulldet": "77e5eb651374ca3b830d2530396cdf356d76c375cb79cf7073f20bfe5fa6cb11",
    "verify-game": "7da71047ae495144241c96e66e955c8c7135a5826f2ca6931a0df59d5f86de0d",
    "verify-mixing": "6e1b7dba8766c380ae4e8bb51d258446045e1f24eeaa4bd519d24000cec09291",
    "verify-game-mc": "72cab118a96acdc4fea8b691ea7f9ee8be361ad3ef51a4070f25b366547a058a",
    "verify-mixing-mc": "7945f14605e39417aceb9707a845bb5c37246a58947ed3d9a990a8888d46234c",
    "sweep-game": "c3db6c64cc296cb9ae1e4cd59137cd17e19fa9e8e6b6897c3ae8e83f8b75a894",
    "report-game": "249fcf1ba7ebc5f578589093b058911142e1e0bb2f76b461c2d6ec390ac6f68a",
    "report-quad": "52d89603c809de23e549a9b3460f38a9d794ba8a5172be9274f994b0e9371432",
    "gen-pvb": "1c68ba27f4da4197dce5db66903df05d8e2a3000f3e6433cb891f6578de8e5ea",
    "gen-quad": "10b3f8017462cf08a379fd69dd28fb99f7229c87d087ff7a0887b39a187b1e1e",
    "gen-mixing": "bfbae955fa610a8ad23406b3462e08516f2825bcb504b6179d52ee32a4c51a1a",
}


# |F(z_K)| at the last iterate of the mixing runs.  Their problem has no
# known solution, so every dist, Lyapunov and gap column of both traces is
# NaN and the digests pin only costs, gamma, tau and T; these pin a number
# the operator's values decide.  The tolerance is relative: 1e-9 leaves
# room for another host's floating-point kernels over 80 iterations, and a
# consensus term scaled by 1 + 1e-7 fails both checks while both digests
# hold.
FINAL_RESIDUALS = {"mix-local": 0.08823257476788862, "mix-fulldet": 0.040381203522593605}
RESIDUAL_RTOL = 1e-9


def run_config(label):
    template, name, quantizer, weights = RUNS[label]
    text = template.format(quantizer=quantizer, weights=weights) if quantizer else template
    return text + f"run.estimator = {name}\n"


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("label", sorted(RUNS))
def test_run_trace_digest(tmp_path, label):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(run_config(label), encoding="utf-8")
    out = tmp_path / "trace.csv"
    assert main(["run", "-c", str(cfg), "-o", str(out)]) == 0
    assert sha256_of(out) == DIGESTS[label]


@pytest.mark.parametrize("label", sorted(FINAL_RESIDUALS))
def test_mixing_run_final_residual(label):
    # the run `vistep run` makes for this config, as cmd_run builds it
    cfg = parse_config_text(run_config(label))
    p = build_problem(cfg)
    trace = run_solver(p, build_solver_config(cfg, build_estimator(cfg, p)))
    residual = float(np.linalg.norm(eval_full(p, trace.z_final)))
    assert residual == pytest.approx(FINAL_RESIDUALS[label], rel=RESIDUAL_RTOL, abs=0)


@pytest.mark.parametrize("label", sorted(VERIFY))
def test_verify_report_digest(tmp_path, label):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(VERIFY[label], encoding="utf-8")
    out = tmp_path / "report.csv"
    assert main(["verify", "-c", str(cfg), "-o", str(out)]) == 0
    assert sha256_of(out) == DIGESTS[label]


def test_sweep_table_digest(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP, encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "-c", str(cfg), "-o", str(out)]) == 0
    assert sha256_of(out) == DIGESTS["sweep-game"]


@pytest.mark.parametrize("gap_every", [1, 7])
def test_sweep_table_ignores_the_gap_schedule(tmp_path, gap_every):
    # the table prints only the last row, whose gap is formed from F at the average on any schedule
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP.replace("run.gap_every = 10\n", f"run.gap_every = {gap_every}\n"), encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "-c", str(cfg), "-o", str(out)]) == 0
    assert sha256_of(out) == DIGESTS["sweep-game"]


@pytest.mark.parametrize("label", sorted(REPORTS))
def test_report_stdout_digest(tmp_path, capsys, label):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(run_config(REPORTS[label]), encoding="utf-8")
    trace = tmp_path / "trace.csv"
    assert main(["run", "-c", str(cfg), "-o", str(trace)]) == 0
    capsys.readouterr()
    assert main(["report", "-i", str(trace)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DIGESTS[label]


@pytest.mark.parametrize("label", sorted(GEN))
def test_gen_stdout_digest(tmp_path, capsys, label):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(GEN[label], encoding="utf-8")
    assert main(["gen", "-c", str(cfg)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DIGESTS[label]
