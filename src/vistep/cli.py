"""Command line front end.

Config files are plain text, one ``section.key = value`` per line, with
``#`` comments and blank lines ignored.  Unknown keys, malformed values,
non-finite floats and integers below their key's least value are rejected
with their line number; ``auto`` asks for the built-in rule where a numeric
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
from dataclasses import dataclass, replace

import numpy as np

from .estimators import KINDS, STRATEGIES, EstimatorKind, Quantizer, check_problem, importance_weights, optimal_tau
from .metrics import VerificationReport, verify_contracts
from .problems import VIProblem, gen_mixing_vi, gen_policeman_burglar, gen_quadratic_vi
from .solver import COST_COLUMNS, RunTrace, SolverConfig, run_solver

_INT_COLUMNS = ("k",) + COST_COLUMNS
_FLOAT_COLUMNS = ("dist_sq", "lyapunov", "gap_last", "gap_avg")
TRACE_COLUMNS = _INT_COLUMNS + _FLOAT_COLUMNS

REPORT_COLUMNS = ("lemma", "variant", "lhs", "rhs", "slack", "n", "pass")

SWEEP_COLUMNS = ("estimator", "gamma", "tau") + TRACE_COLUMNS


class ConfigError(Exception):
    pass


# key -> (type, rule, default).  type is one of int, float, str,
# float_or_auto; the rule is the tuple of choices of a str key or the least
# value of an int key (None: any value), and an int key also accepts its
# default.  A default of None is auto for a float_or_auto key; any other key
# without a default is required where it is read.
_SCHEMA = {
    ("problem", "kind"): ("str", ("pvb", "quadratic", "mixing"), None),
    ("problem", "n"): ("int", 1, None),
    ("problem", "theta"): ("float", None, 0.6),
    ("problem", "sigma_w"): ("float", None, 3.0),
    ("problem", "seed"): ("int", 0, 0),
    ("problem", "d"): ("int", 1, None),
    ("problem", "mu"): ("float", None, None),
    ("problem", "L"): ("float", None, None),
    ("problem", "workers"): ("int", 1, None),
    ("problem", "lambda"): ("float", None, None),
    ("run", "estimator"): ("str", KINDS, None),
    ("run", "K"): ("int", 0, None),
    ("run", "seed"): ("int", 0, 0),
    ("run", "regime"): ("str", ("mono", "sm"), "mono"),
    ("run", "gamma"): ("float_or_auto", None, None),
    ("run", "tau"): ("float_or_auto", None, None),
    ("run", "gap_every"): ("int", 1, 1),
    ("run", "sigma"): ("float", None, 0.0),
    ("run", "quantizer"): ("str", ("identity", "randk"), "identity"),
    ("run", "randk_k"): ("int", 1, None),
    ("run", "weights"): ("str", ("uniform", "lipschitz"), "uniform"),
    ("run", "tau_split"): ("float_or_auto", None, None),
    ("sweep", "estimators"): ("str", None, None),
    ("verify", "estimators"): ("str", None, None),
    ("verify", "n_points"): ("int", 1, 3),
    # 0 enumerates the outcome atoms or draws the default batch
    ("verify", "n_samples"): ("int", 2, 0),
}


@dataclass
class Config:
    """Parsed key/value pairs plus the normalized lines they came from."""

    entries: dict

    def get(self, section: str, key: str):
        return self.entries.get((section, key), _SCHEMA[(section, key)][2])

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
            raise ConfigError(f"line {lineno}: unknown key {lhs}")
        if (section, key) in entries:
            raise ConfigError(f"line {lineno}: duplicate key {lhs}")
        typ, rule, default = _SCHEMA[(section, key)]
        where = f"line {lineno}: {lhs}"
        if typ == "float_or_auto" and value == "auto":
            parsed = None
        elif typ == "int":
            try:
                parsed = int(value)
            except ValueError:
                raise ConfigError(f"{where} needs an integer, got {value!r}")
            if rule is not None and parsed < rule and parsed != default:
                also = f"{default} or " if default is not None and default < rule else ""
                raise ConfigError(f"{where} must be {also}at least {rule}, got {parsed}")
        elif typ == "str":
            if rule is not None and value not in rule:
                raise ConfigError(f"{where} must be one of {', '.join(rule)}")
            parsed = value
        else:
            try:
                parsed = float(value)
            except ValueError:
                raise ConfigError(f"{where} needs a number, got {value!r}")
            if not np.isfinite(parsed):
                raise ConfigError(f"{where} must be finite, got {value!r}")
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
    d, mu, L = (cfg.require("problem", key) for key in ("d", "mu", "L"))
    if kind == "quadratic":
        return gen_quadratic_vi(d, mu, L, seed=seed)
    base = [gen_quadratic_vi(d, mu, L, seed=seed + m) for m in range(cfg.require("problem", "workers"))]
    return gen_mixing_vi(base, cfg.require("problem", "lambda"))


def _quantizer(cfg: Config, p: VIProblem, name: str) -> Quantizer:
    if cfg.get("run", "quantizer") != "randk":
        return Quantizer("identity")
    k = cfg.require("run", "randk_k")
    if k > p.d:
        raise ConfigError(f"run.randk_k = {k} exceeds the problem dimension d = {p.d}")
    return Quantizer("randk", k=k, d=p.d)


def _weights(cfg: Config, p: VIProblem, name: str) -> tuple[float, ...]:
    if cfg.get("run", "weights") != "lipschitz":
        return (1.0 / p.M,) * p.M
    return tuple(float(x) for x in importance_weights(p.L_m))


def _tau_split(cfg: Config, p: VIProblem, name: str) -> float:
    kind = EstimatorKind(name, tau_split=0.5)
    try:
        check_problem(kind, p)
    except TypeError as e:
        raise ConfigError(str(e)) from None
    split = cfg.get("run", "tau_split")
    if split is not None:
        return float(split)
    # the branch split that minimizes A is the strategy's own tau rule
    return optimal_tau(kind, L=p.payload.l_phi, lam=p.payload.lam)


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


def _write_text(path: str | None, lines: list[str]) -> None:
    """Write the lines, each ended by a newline, to a file or to stdout."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _trace_rows(trace: RunTrace, start: int = 0) -> list[str]:
    """CSV rows of the trace from row ``start`` on, formatted column by column."""
    cols = [[str(x) for x in getattr(trace, name)[start:].tolist()] for name in _INT_COLUMNS]
    cols += [[f"{x:.17g}" for x in getattr(trace, name)[start:].tolist()] for name in _FLOAT_COLUMNS]
    return [",".join(cells) for cells in zip(*cols)]


def write_trace(path: str, trace: RunTrace, echo_lines) -> None:
    lines = ["# vistep trace", "# config-begin"]
    lines += [f"# {ln}" for ln in echo_lines]
    lines += ["# config-end"]
    lines += [f"# {name} = {_fmt_float(getattr(trace, name))}" for name in ("gamma", "tau", "T")]
    lines += [",".join(TRACE_COLUMNS)]
    _write_text(path, lines + _trace_rows(trace))


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
    if len(body) < 2:  # a header alone has no rows after it
        raise ValueError(f"trace file {path} has no data rows")
    header = body[0].split(",")
    if tuple(header) != TRACE_COLUMNS:
        raise ValueError(f"trace file {path} has unexpected columns {header}")
    rows = [ln.split(",") for ln in body[1:]]
    for ln, parts in zip(body[1:], rows):
        if len(parts) != len(TRACE_COLUMNS):
            raise ValueError(f"trace file {path} has a malformed row: {ln!r}")
    cells = dict(zip(TRACE_COLUMNS, zip(*rows)))
    columns = {name: np.array(_parse_cells(path, name, cells, int), dtype=np.int64) for name in _INT_COLUMNS}
    columns.update({name: np.array(_parse_cells(path, name, cells, float)) for name in _FLOAT_COLUMNS})
    return TraceFile(config_text="\n".join(cfg_lines), columns=columns)


def _parse_cells(path: str, name: str, cells: dict, typ) -> list:
    """Column ``name`` of the trace's cells as typ; a cell that does not
    parse is named by its file, data row and column."""
    col = cells[name]
    try:
        return [typ(t) for t in col]
    except ValueError:
        pass
    for row, t in enumerate(col, start=1):
        try:
            typ(t)
        except ValueError:
            raise ValueError(f"trace file {path} has a bad {name} cell in data row {row}: {t!r}") from None


def cmd_gen(cfg: Config) -> int:
    p = build_problem(cfg)
    blocks = "free" if p.prox.free else ",".join(str(b) for b in p.prox.blocks)
    lines = [f"kind = {p.meta.get('kind', '?')}", f"d = {p.d}", f"M = {p.M}", f"blocks = {blocks}"]
    lines += [f"L = {_fmt_float(p.L)}", f"mu_F = {_fmt_float(p.mu_F)}"]
    lines.append(f"L_m = {' '.join(_fmt_float(x) for x in p.L_m)}")
    _write_text(None, lines)
    return 0


def cmd_run(cfg: Config, out_path: str) -> int:
    p = build_problem(cfg)
    kind = build_estimator(cfg, p)
    trace = run_solver(p, build_solver_config(cfg, kind))
    write_trace(out_path, trace, cfg.echo_lines())
    return 0


def _estimator_names(cfg: Config, section: str) -> list[str]:
    names = [s.strip() for s in cfg.require(section, "estimators").split(",") if s.strip()]
    if not names:
        raise ConfigError(f"{section}.estimators is empty")
    return names


def cmd_sweep(cfg: Config, out_path: str) -> int:
    p = build_problem(cfg)
    lines = [",".join(SWEEP_COLUMNS)]
    for name in _estimator_names(cfg, "sweep"):
        config = build_solver_config(cfg, build_estimator(cfg, p, name=name))
        # only the last row is printed: form the gap there alone, from F at the average
        trace = run_solver(p, replace(config, gap_every=max(config.K, 1)))
        lines.append(f"{name},{_fmt_float(trace.gamma)},{_fmt_float(trace.tau)},{_trace_rows(trace, -1)[0]}")
    _write_text(out_path, lines)
    return 0


def exit_code_for(report: VerificationReport) -> int:
    return 0 if report.all_pass else 3


def cmd_verify(cfg: Config, out_path: str | None = None) -> int:
    p = build_problem(cfg)
    n_points = cfg.get("verify", "n_points")
    n_samples = cfg.get("verify", "n_samples")
    kinds = [build_estimator(cfg, p, name=name) for name in _estimator_names(cfg, "verify")]
    # seed 0, the single-lemma verifiers' default
    report = verify_contracts(kinds, p, n_points, n_samples, 0)
    lines = [",".join(REPORT_COLUMNS)]
    for r in report.rows:
        cells = [r.lemma, r.variant, _fmt_float(r.lhs), _fmt_float(r.rhs), _fmt_float(r.slack), str(r.n)]
        lines.append(",".join(cells + ["1" if r.passed else "0"]))
    _write_text(out_path, lines)
    return exit_code_for(report)


def cmd_report(in_path: str) -> int:
    columns = read_trace(in_path).columns
    lines = [f"rows = {len(columns['k'])}", f"iterations = {int(columns['k'][-1])}"]
    lines += [f"{name} = {int(columns[name][-1])}" for name in COST_COLUMNS]
    lines += [f"{name} = {_fmt_float(columns[name][-1])}" for name in _FLOAT_COLUMNS]
    finite = columns["gap_avg"][np.isfinite(columns["gap_avg"])]
    if finite.size:
        lines.append(f"best_gap_avg = {_fmt_float(finite.min())}")
    _write_text(None, lines)
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
