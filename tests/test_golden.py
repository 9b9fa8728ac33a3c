"""Golden digests: the CLI's output bytes for small fixed configs.

Every strategy is run through ``vistep run`` and the contract checks
through ``vistep verify``; the sha256 of each output file is pinned, as
is that of a ``vistep sweep`` table and of the text ``vistep report`` and
``vistep gen`` print.  A change to any of these bytes must be intentional
and recorded in CHANGES.md together with the new digest.
"""

import hashlib

import pytest

from vistep.cli import main

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
    "game-fulldet": "79258b0e10c14cecc2478adcdc251bc675f3b3ab8da2a9528eaa23a74935098c",
    "game-noisy": "b2a7d8d9733c4202141a984bd02e33c0851b01f1c73afa46fe8c2317707f9785",
    "game-past": "9db9bf9aa5065c6e0258ac9296bb58369fa7b62d5233ecfb973599b626c2fd1f",
    "game-vr": "0227b0d96deaf45f4fd27598705cf816ca1b5a66eb395a0c41abbfba8052f22e",
    "game-coord": "ec839b459a2f9e5b2831f159b694fb72c00d74cdeb96b9e4446f947cb5401f40",
    "game-quant-identity": "fe9059b4c0fa417b9cb812c91637ca893976f0ea4ffba02f9b1d49e77a27846e",
    "game-quant-randk": "9b421efad3126456c2709f963c9c57faa4d26343f19156e486cbe01fb2da21fd",
    "game-qvr-identity": "59018ce14862c71ff6994df7cad8cd2a72ca0b1bec9ab5d18ccee9df7741415d",
    "game-qvr-randk": "fc962f3a3aad79cbc8e511fa0f1690c638deca39421110631010830c72264eea",
    "game-is-lipschitz": "69093b7c95710ff850294f308d2b563c5a704b4b7b12abead16940df2706b71b",
    "game-vr-every-row": "6460affc2c9de774504de24b26f78c6d942b4850ab814e5a60f45c3160bc1d4f",
    "game-past-every-row": "3c1e92b9566d9b6dd8c07726183ca2cad7df6380573175152be1546e6041e9bb",
    "quad-fulldet": "c5daa182ff65e43ba7e7ab88501d17a25dc943d71043e0cc3b9090f214c6586c",
    "quad-vr": "5a74182cdaa4deea40111c58086aa5c4c532150d392e01d9098e52ff293080aa",
    "quad-coord": "d3b6f2d5a56ebd624353165b09b87ad6f68bde62450fe4e3e280645df4852d80",
    "quad-quant": "edfb246301156eda578e9e1bea45128318afcd5f68f1fc78ee631e53738f964b",
    "mix-local": "03f0eb3462dbffa64974d0ad78bb0ed53d2454f28ba5adf7adcb687a410bef21",
    "mix-fulldet": "77e5eb651374ca3b830d2530396cdf356d76c375cb79cf7073f20bfe5fa6cb11",
    "verify-game": "ce27577718ccb2e87cd27e61951686eb5a95147ebb3e353e0b462f4d2392fb65",
    "verify-mixing": "0ce8477aebb7ea4f877ffc97a7fba95f17649676805f2d8bd6e0dd3d7fc0cff9",
    "verify-game-mc": "480eb2198722da5203dbb57ce0b0f7041738beca0caa0a526b2e6ada089d1bc0",
    "verify-mixing-mc": "dfc887ef94ff183b607f348701b35e166040c47a41b2b5d4736c7383d6c7880f",
    "sweep-game": "8769cb626756d475d74843b79e75cc9ad06ae1ba56a825646249eb32b11b0176",
    "report-game": "acde734d154ed824e20727dafdcdc876e5332092fb1ee3360f1142b1815fd6ca",
    "report-quad": "52d89603c809de23e549a9b3460f38a9d794ba8a5172be9274f994b0e9371432",
    "gen-pvb": "1941019300a9fd2a368275ed173d3374257eb6c90be1c6257912229395adfb1b",
    "gen-quad": "10b3f8017462cf08a379fd69dd28fb99f7229c87d087ff7a0887b39a187b1e1e",
    "gen-mixing": "bfbae955fa610a8ad23406b3462e08516f2825bcb504b6179d52ee32a4c51a1a",
}


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
