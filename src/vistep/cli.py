"""Command line front end.

Config files are plain text, one ``section.key = value`` per line, with
``#`` comments and blank lines ignored.  Unknown keys are rejected with
their line number; ``auto`` asks for the built-in rule where a numeric
override is allowed (step size, momentum, local split).

Commands:
    gen     build the configured problem and print its constants
    run     run the solver, write the iteration trace as CSV
    sweep   run several strategies on one problem, write a comparison CSV
    verify  run the estimator contract checks, write a report CSV
    report  summarize a previously written trace file

Trace CSVs carry the originating config between ``# config-begin`` and
``# config-end`` header lines, so a run can be reproduced from its output
file alone.  Exit codes: 0 success, 1 config error, 2 runtime error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .estimators import KINDS, STRATEGIES, EstimatorKind, Quantizer, importance_weights, optimal_tau
from .metrics import VerificationReport, verify_assumption2, verify_unbiasedness
from .problems import VIProblem, gen_mixing_vi, gen_policeman_burglar, gen_quadratic_vi
from .solver import RunTrace, SolverConfig, run_solver

TRACE_COLUMNS = (
    "k",
    "full_calls",
    "comp_calls",
    "coords",
    "bits",
    "comms",
    "local_steps",
    "dist_sq",
    "lyapunov",
    "gap_last",
    "gap_avg",
)
_INT_COLUMNS = TRACE_COLUMNS[:7]

REPORT_COLUMNS = ("lemma", "variant", "lhs", "rhs", "slack", "n", "pass")

SWEEP_COLUMNS = ("estimator", "gamma", "tau") + TRACE_COLUMNS


class ConfigError(Exception):
    pass


# key -> (type, choices); type one of int, float, str, float_or_auto
_SCHEMA = {
    ("problem", "kind"): ("str", ("pvb", "quadratic", "mixing")),
    ("problem", "n"): ("int", None),
    ("problem", "theta"): ("float", None),
    ("problem", "sigma_w"): ("float", None),
    ("problem", "seed"): ("int", None),
    ("problem", "d"): ("int", None),
    ("problem", "mu"): ("float", None),
    ("problem", "L"): ("float", None),
    ("problem", "workers"): ("int", None),
    ("problem", "lambda"): ("float", None),
    ("run", "estimator"): ("str", KINDS),
    ("run", "K"): ("int", None),
    ("run", "seed"): ("int", None),
    ("run", "regime"): ("str", ("mono", "sm")),
    ("run", "gamma"): ("float_or_auto", None),
    ("run", "tau"): ("float_or_auto", None),
    ("run", "gap_every"): ("int", None),
    ("run", "sigma"): ("float", None),
    ("run", "quantizer"): ("str", ("identity", "randk")),
    ("run", "randk_k"): ("int", None),
    ("run", "weights"): ("str", ("uniform", "lipschitz")),
    ("run", "tau_split"): ("float_or_auto", None),
    ("sweep", "estimators"): ("str", None),
    ("verify", "estimators"): ("str", None),
    ("verify", "n_points"): ("int", None),
    ("verify", "n_samples"): ("int", None),
}

_DEFAULTS = {
    ("problem", "theta"): 0.6,
    ("problem", "sigma_w"): 3.0,
    ("problem", "seed"): 0,
    ("run", "seed"): 0,
    ("run", "regime"): "mono",
    ("run", "gamma"): None,
    ("run", "tau"): None,
    ("run", "gap_every"): 1,
    ("run", "sigma"): 0.0,
    ("run", "quantizer"): "identity",
    ("run", "weights"): "uniform",
    ("run", "tau_split"): None,
    ("verify", "n_points"): 3,
    ("verify", "n_samples"): 0,
}


@dataclass
class Config:
    """Parsed key/value pairs plus the normalized lines they came from."""

    entries: dict

    def get(self, section: str, key: str, default=None):
        if (section, key) in self.entries:
            return self.entries[(section, key)]
        if (section, key) in _DEFAULTS:
            return _DEFAULTS[(section, key)]
        return default

    def require(self, section: str, key: str):
        val = self.get(section, key)
        if val is None:
            raise ConfigError(f"missing required key {section}.{key}")
        return val

    def echo_lines(self) -> list[str]:
        return [f"{s}.{k} = {_fmt_value(v)}" for (s, k), v in self.entries.items()]


def _fmt_value(v) -> str:
    if v is None:
        return "auto"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def parse_config_text(text: str) -> Config:
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        lhs, rhs = line.split("=", 1)
        lhs = lhs.strip()
        value = rhs.strip()
        if "." not in lhs:
            raise ConfigError(f"line {lineno}: key {lhs!r} is missing a section prefix")
        section, key = lhs.split(".", 1)
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        typ, choices = _SCHEMA[(section, key)]
        if typ == "float_or_auto" and value == "auto":
            parsed = None
        elif typ == "int":
            try:
                parsed = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {section}.{key} needs an integer, got {value!r}")
        elif typ in ("float", "float_or_auto"):
            try:
                parsed = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {section}.{key} needs a number, got {value!r}")
        else:
            parsed = value
        if choices is not None and parsed not in choices:
            raise ConfigError(f"line {lineno}: {section}.{key} must be one of {', '.join(choices)}")
        if (section, key) == ("verify", "n_samples") and (parsed == 1 or parsed < 0):
            raise ConfigError(f"line {lineno}: verify.n_samples must be 0 or at least 2, got {parsed}")
        entries[(section, key)] = parsed
    return Config(entries=entries)


def parse_config(path: str) -> Config:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    return parse_config_text(text)


def build_problem(cfg: Config) -> VIProblem:
    kind = cfg.require("problem", "kind")
    seed = cfg.get("problem", "seed")
    if kind == "pvb":
        n = cfg.require("problem", "n")
        return gen_policeman_burglar(
            n, theta=cfg.get("problem", "theta"), sigma_w=cfg.get("problem", "sigma_w"), seed=seed
        )
    if kind == "quadratic":
        return gen_quadratic_vi(
            cfg.require("problem", "d"), cfg.require("problem", "mu"), cfg.require("problem", "L"), seed=seed
        )
    workers = cfg.require("problem", "workers")
    base = [
        gen_quadratic_vi(
            cfg.require("problem", "d"), cfg.require("problem", "mu"), cfg.require("problem", "L"), seed=seed + m
        )
        for m in range(workers)
    ]
    return gen_mixing_vi(base, cfg.require("problem", "lambda"))


def _quantizer(cfg: Config, p: VIProblem, name: str) -> Quantizer:
    if cfg.get("run", "quantizer") != "randk":
        return Quantizer("identity")
    k = cfg.get("run", "randk_k")
    if k is None:
        raise ConfigError("run.randk_k is required for the randk quantizer")
    return Quantizer("randk", k=k, d=p.d)


def _weights(cfg: Config, p: VIProblem, name: str) -> tuple[float, ...]:
    if cfg.get("run", "weights") != "lipschitz":
        return tuple(float(x) for x in np.full(p.M, 1.0 / p.M))
    if p.L_m is None:
        raise ConfigError("problem has no per-component constants for lipschitz weights")
    return tuple(float(x) for x in importance_weights(p.L_m))


def _tau_split(cfg: Config, p: VIProblem, name: str) -> float:
    split = cfg.get("run", "tau_split")
    if split is not None:
        return float(split)
    mix = p.payload
    if not hasattr(mix, "l_phi"):
        raise ConfigError(f"{name} estimator requires a mixing problem")
    # the branch split that minimizes A is the strategy's own tau rule
    return optimal_tau(EstimatorKind(name, tau_split=0.5), L=mix.l_phi, lam=mix.lam)


# EstimatorKind parameter -> its value from the run.* keys; a strategy reads
# the parameters its table row lists, and so only their keys
_PARAMETERS = {
    "sigma": lambda cfg, p, name: cfg.get("run", "sigma"),
    "quantizer": _quantizer,
    "weights": _weights,
    "tau_split": _tau_split,
}


def build_estimator(cfg: Config, p: VIProblem, name: str | None = None) -> EstimatorKind:
    name = cfg.require("run", "estimator") if name is None else name
    if name not in KINDS:
        raise ConfigError(f"unknown estimator {name!r}")
    return EstimatorKind(name, **{param: _PARAMETERS[param](cfg, p, name) for param in STRATEGIES[name].reads})


def build_solver_config(cfg: Config, kind: EstimatorKind) -> SolverConfig:
    return SolverConfig(
        kind=kind,
        K=cfg.require("run", "K"),
        seed=cfg.get("run", "seed"),
        regime=cfg.get("run", "regime"),
        gamma=cfg.get("run", "gamma"),
        tau=cfg.get("run", "tau"),
        gap_every=cfg.get("run", "gap_every"),
    )


@dataclass
class TraceFile:
    """A written trace read back: the embedded config and the columns."""

    config_text: str
    columns: dict


def _trace_cell(name: str, row: int, trace: RunTrace) -> str:
    arr = getattr(trace, name)
    if name in _INT_COLUMNS:
        return str(int(arr[row]))
    return _fmt_float(arr[row])


def write_trace(path: str, trace: RunTrace, echo_lines) -> None:
    lines = ["# vistep trace", "# config-begin"]
    lines += [f"# {ln}" for ln in echo_lines]
    lines += ["# config-end"]
    lines += [f"# gamma = {_fmt_float(trace.gamma)}"]
    lines += [f"# tau = {_fmt_float(trace.tau)}"]
    lines += [f"# T = {_fmt_float(trace.T)}"]
    lines += [",".join(TRACE_COLUMNS)]
    for row in range(len(trace.k)):
        lines.append(",".join(_trace_cell(name, row, trace) for name in TRACE_COLUMNS))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path: str) -> TraceFile:
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    cfg_lines = []
    body = []
    in_cfg = False
    for ln in raw:
        if ln.startswith("#"):
            stripped = ln[1:].strip()
            if stripped == "config-begin":
                in_cfg = True
            elif stripped == "config-end":
                in_cfg = False
            elif in_cfg:
                cfg_lines.append(stripped)
            continue
        if ln.strip():
            body.append(ln)
    if not body:
        raise ValueError(f"trace file {path} has no data rows")
    header = body[0].split(",")
    if tuple(header) != TRACE_COLUMNS:
        raise ValueError(f"trace file {path} has unexpected columns {header}")
    cols = {name: [] for name in TRACE_COLUMNS}
    for ln in body[1:]:
        parts = ln.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise ValueError(f"trace file {path} has a malformed row: {ln!r}")
        for name, tok in zip(TRACE_COLUMNS, parts):
            cols[name].append(tok)
    columns = {}
    for name in TRACE_COLUMNS:
        if name in _INT_COLUMNS:
            columns[name] = np.array([int(t) for t in cols[name]], dtype=np.int64)
        else:
            columns[name] = np.array([float(t) for t in cols[name]])
    return TraceFile(config_text="\n".join(cfg_lines), columns=columns)


def cmd_gen(cfg: Config, out=None) -> int:
    out = sys.stdout if out is None else out
    p = build_problem(cfg)
    print(f"kind = {p.meta.get('kind', '?')}", file=out)
    print(f"d = {p.d}", file=out)
    print(f"M = {p.M}", file=out)
    blocks = "free" if p.prox.free else ",".join(str(b) for b in p.prox.blocks)
    print(f"blocks = {blocks}", file=out)
    print(f"L = {_fmt_float(p.L)}", file=out)
    print(f"mu_F = {_fmt_float(p.mu_F)}", file=out)
    if p.L_m is not None:
        print(f"L_m = {' '.join(_fmt_float(x) for x in p.L_m)}", file=out)
    return 0


def cmd_run(cfg: Config, out_path: str) -> int:
    p = build_problem(cfg)
    kind = build_estimator(cfg, p)
    trace = run_solver(p, build_solver_config(cfg, kind))
    write_trace(out_path, trace, cfg.echo_lines())
    return 0


def _final_cells(name: str, trace: RunTrace) -> str:
    if name in ("gamma", "tau"):
        return _fmt_float(getattr(trace, name))
    return _trace_cell(name, len(trace.k) - 1, trace)


def cmd_sweep(cfg: Config, out_path: str) -> int:
    p = build_problem(cfg)
    names = [s.strip() for s in cfg.require("sweep", "estimators").split(",") if s.strip()]
    if not names:
        raise ConfigError("sweep.estimators is empty")
    lines = [",".join(SWEEP_COLUMNS)]
    for name in names:
        kind = build_estimator(cfg, p, name=name)
        trace = run_solver(p, build_solver_config(cfg, kind))
        cells = [name] + [_final_cells(col, trace) for col in SWEEP_COLUMNS[1:]]
        lines.append(",".join(cells))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def exit_code_for(report: VerificationReport) -> int:
    return 0 if report.all_pass else 3


def cmd_verify(cfg: Config, out_path: str | None = None) -> int:
    p = build_problem(cfg)
    names = [s.strip() for s in cfg.require("verify", "estimators").split(",") if s.strip()]
    if not names:
        raise ConfigError("verify.estimators is empty")
    n_points = cfg.get("verify", "n_points")
    n_samples = cfg.get("verify", "n_samples")
    report = VerificationReport(rows=[])
    for name in names:
        kind = build_estimator(cfg, p, name=name)
        report.extend(verify_unbiasedness(kind, p, n_points=n_points, n_samples=n_samples))
        report.extend(verify_assumption2(kind, p, n_points=n_points, n_samples=n_samples))
    lines = [",".join(REPORT_COLUMNS)]
    for r in report.rows:
        lines.append(
            ",".join(
                [
                    r.lemma,
                    r.variant,
                    _fmt_float(r.lhs),
                    _fmt_float(r.rhs),
                    _fmt_float(r.slack),
                    str(r.n),
                    "1" if r.passed else "0",
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return exit_code_for(report)


def cmd_report(in_path: str, out=None) -> int:
    out = sys.stdout if out is None else out
    tf = read_trace(in_path)
    k = tf.columns["k"]
    last = len(k) - 1
    print(f"rows = {len(k)}", file=out)
    print(f"iterations = {int(k[last])}", file=out)
    for name in _INT_COLUMNS[1:]:
        print(f"{name} = {int(tf.columns[name][last])}", file=out)
    for name in ("dist_sq", "lyapunov", "gap_last", "gap_avg"):
        print(f"{name} = {_fmt_float(tf.columns[name][last])}", file=out)
    finite = tf.columns["gap_avg"][np.isfinite(tf.columns["gap_avg"])]
    if finite.size:
        print(f"best_gap_avg = {_fmt_float(finite.min())}", file=out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vistep", description="extra-step solvers for variational inequalities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen", "run", "sweep", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("-c", "--config", required=True)
        if name in ("run", "sweep"):
            sp.add_argument("-o", "--out", required=True)
        elif name == "verify":
            sp.add_argument("-o", "--out", default=None)
    rp = sub.add_parser("report")
    rp.add_argument("-i", "--input", required=True)
    args = parser.parse_args(argv)

    try:
        if args.command == "gen":
            return cmd_gen(parse_config(args.config))
        if args.command == "run":
            return cmd_run(parse_config(args.config), args.out)
        if args.command == "sweep":
            return cmd_sweep(parse_config(args.config), args.out)
        if args.command == "verify":
            return cmd_verify(parse_config(args.config), args.out)
        return cmd_report(args.input)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
