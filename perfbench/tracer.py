"""In-memory span tracer that wraps vistep's module-level names from outside.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces the names
that ``solver`` and ``estimators`` imported (and two ``MixingVI`` methods)
with timing wrappers, and :meth:`Tracer.uninstall` puts the originals back.
A name that a later refactor removed is listed in ``absent`` instead of
raising, so the layers it fed report as absent.

Spans live in a Python list while a round runs; the caller writes them to a
file when the benchmark ends.  A span is ``[name, parent, t0, t1, info]``
where ``parent`` indexes the enclosing span (-1 for a root) and ``info``
carries the return flag of ``snapshot_update`` or the multiply-add count of
an oracle call.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

ORACLE_SPANS = ("estimators.eval_full", "estimators.eval_component", "MixingVI.phi", "MixingVI.consensus")
PROX_SPANS = ("solver.prox_eval", "estimators.prox_eval")


def full_work(payload) -> int | None:
    """Multiply-adds of one full operator call, from the payload's array
    shapes; None when the payload's layout is not one this audit knows."""
    if hasattr(payload, "avg") and hasattr(payload, "half"):
        # F(x, y) = (A^T y, -A x): two (n^2 x n^2) matvecs
        return 2 * int(payload.avg.size)
    if hasattr(payload, "mat") and hasattr(payload, "center"):
        return int(payload.mat.size)
    if hasattr(payload, "base") and hasattr(payload, "lam"):
        phi = phi_work(payload)
        return None if phi is None else phi + consensus_work(payload)
    return None


def phi_work(mix) -> int | None:
    works = [full_work(p.payload) for p in mix.base]
    return None if any(w is None for w in works) else sum(works)


def consensus_work(mix) -> int:
    return len(mix.base) * int(mix.d_base)


def _work_of_first_arg(fn):
    """Span info: fn(first call argument), or None if its layout is unknown."""

    def info(args):
        try:
            return fn(args[0])
        except (AttributeError, IndexError):
            return None

    return info


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str, info=None) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0, info]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, info=None):
        rec = self._open(name, info)
        try:
            yield rec
        finally:
            self._close(rec)

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, info_fn=None, result_fn=None) -> None:
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            self.absent.append(name)
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name, info_fn(args) if info_fn else None)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(rec)
            if result_fn is not None:
                rec[4] = result_fn(out)
            return out

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def install(self, solver, est, problems) -> None:
        """Wrap the per-iteration names ``solver`` and ``estimators`` import,
        and ``MixingVI.phi``/``consensus``, given the three vistep modules."""
        mixing_cls = getattr(problems, "MixingVI", None)
        oracle_work = _work_of_first_arg(lambda p: full_work(p.payload))
        self._wrap(solver, "est_pair", "solver.est_pair")
        self._wrap(solver, "snapshot_update", "solver.snapshot_update", result_fn=bool)
        self._wrap(solver, "prox_eval", "solver.prox_eval")
        self._wrap(solver, "lyapunov_value", "solver.lyapunov_value")
        # duality_gap_bilinear(game, z) forms A x and A^T y: the same two matvecs as F
        self._wrap(solver, "duality_gap_bilinear", "solver.duality_gap_bilinear", info_fn=_work_of_first_arg(full_work))
        self._wrap(est, "eval_full", "estimators.eval_full", info_fn=oracle_work)
        self._wrap(est, "eval_component", "estimators.eval_component", info_fn=oracle_work)
        self._wrap(est, "prox_eval", "estimators.prox_eval")
        self._wrap(est, "quantize", "estimators.quantize")
        if mixing_cls is None:
            self.absent += ["MixingVI.phi", "MixingVI.consensus"]
        else:
            self._wrap(mixing_cls, "phi", "MixingVI.phi", info_fn=_work_of_first_arg(phi_work))
            self._wrap(mixing_cls, "consensus", "MixingVI.consensus", info_fn=_work_of_first_arg(consensus_work))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []
        self.absent = []


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def write_spans(path, spans: list[list]) -> None:
    """CSV with one span per line; ``root`` groups the spans of one call
    the benchmark made into the library."""
    roots = []
    for i, s in enumerate(spans):
        roots.append(i if s[1] < 0 else roots[s[1]])
    t_base = spans[0][2] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,root,name,start_us,end_us,info\n")
        for i, s in enumerate(spans):
            info = "" if s[4] is None else s[4]
            fh.write(f"{i},{s[1]},{roots[i]},{s[0]},{(s[2] - t_base) * 1e6:.3f},{(s[3] - t_base) * 1e6:.3f},{info}\n")
