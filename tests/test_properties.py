"""Property tests: the prox operators, the cost ledgers and the config
round trip, on generated inputs."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vistep import (
    EstimatorKind,
    ProxSpec,
    Quantizer,
    SolverConfig,
    gen_policeman_burglar,
    project_simplex,
    prox_eval,
    run_solver,
)
from vistep.cli import _SCHEMA, Config, parse_config_text
from vistep.core import _ROW_BLOCK_MAX
from vistep.estimators import KINDS
from vistep.solver import COST_COLUMNS

PROPERTY = settings(max_examples=150, deadline=None)
TOL = 1e-9

entries = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
vectors = st.integers(1, 12).flatmap(lambda n: arrays(np.float64, n, elements=entries))
block_lists = st.lists(st.integers(1, 5), min_size=1, max_size=4)


def pair_on(blocks):
    """Two vectors of the blocks' total length."""
    return arrays(np.float64, (2, sum(blocks)), elements=entries)


def assert_on_simplices(x, blocks):
    start = 0
    for b in blocks:
        part = x[start : start + b]
        assert part.min() >= 0.0
        assert abs(part.sum() - 1.0) <= TOL
        start += b


@PROPERTY
@given(vectors)
def test_projection_feasible_and_idempotent(v):
    x = project_simplex(v)
    assert_on_simplices(x, [len(v)])
    np.testing.assert_allclose(project_simplex(x), x, rtol=0.0, atol=TOL)


def project_simplex_sort_rule(v):
    """The sort rule as first written (``np.cumsum``, an integer rank vector,
    ``np.nonzero`` over the whole support): ``project_simplex`` must give
    its bits exactly."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    if not math.isfinite(css[-1]):
        raise ValueError("sum overflows")
    j = np.arange(1, v.size + 1)
    support = np.nonzero(u * j > css)[0]
    if support.size == 0:
        return project_simplex_sort_rule(v - u[0])
    rho = support[-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


# entries at and past 2^53, where u_1 - 1 rounds back to u_1 and the
# projection takes its shift fallback
huge = st.floats(min_value=2.0**53, max_value=2.0**56)
scaled_entries = st.one_of(entries.map(lambda x: 1e-6 * x), entries, huge, huge.map(lambda x: -x))


@PROPERTY
@example(np.array([4e16, 4e16 + 8.0, 0.0]))
@given(st.integers(1, 30).flatmap(lambda n: arrays(np.float64, n, elements=scaled_entries)))
def test_projection_bits_match_the_sort_rule(v):
    np.testing.assert_array_equal(project_simplex(v), project_simplex_sort_rule(v))


def equal_blocks_and_vector(count, b):
    return st.tuples(st.just((b,) * count), arrays(np.float64, count * b, elements=scaled_entries))


@PROPERTY
@example(((3, 3), np.array([0.2, 0.5, -0.1, 4e16, 4e16 + 8.0, 0.0])))
@example(((9,), 2.0**52 + np.array([10.0, -19.5, 18.0, 18.0, 0.0, -16.0, 19.0, -19.0, 3.0])))
@given(st.tuples(st.integers(1, 4), st.integers(1, _ROW_BLOCK_MAX + 16)).flatmap(lambda cb: equal_blocks_and_vector(*cb)))
def test_equal_blocks_keep_the_per_block_sort_rule_bits(case):
    # blocks up to _ROW_BLOCK_MAX are projected as rows of one array, longer
    # ones block by block; both give the sort rule's bits on every block
    blocks, v = case
    before = v.copy()
    got = prox_eval(ProxSpec(blocks), v)
    assert v.tobytes() == before.tobytes()
    b = blocks[0]
    want = np.concatenate([project_simplex_sort_rule(v[i : i + b]) for i in range(0, v.size, b)])
    assert got.tobytes() == want.tobytes()


@PROPERTY
@given(block_lists.flatmap(lambda blocks: st.tuples(st.just(blocks), pair_on(blocks))))
def test_prox_feasible_idempotent_and_nonexpansive(case):
    blocks, (a, b) = case
    spec = ProxSpec(tuple(blocks))
    pa, pb = prox_eval(spec, a), prox_eval(spec, b)
    assert_on_simplices(pa, blocks)
    np.testing.assert_allclose(prox_eval(spec, pa), pa, rtol=0.0, atol=TOL)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + TOL


GAME = gen_policeman_burglar(2, seed=3)
KIND_CHOICES = (
    EstimatorKind("fulldet"),
    EstimatorKind("noisy", sigma=0.1),
    EstimatorKind("past", sigma=0.1),
    EstimatorKind("vr"),
    EstimatorKind("coord"),
    EstimatorKind("quant", quantizer=Quantizer("randk", k=3, d=GAME.d)),
    EstimatorKind("qvr", quantizer=Quantizer("randk", k=3, d=GAME.d)),
    EstimatorKind("is", weights=(0.3, 0.7)),
)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KIND_CHOICES), st.integers(0, 2**16), st.integers(0, 12), st.sampled_from([0.0, 0.5, None]))
def test_cost_ledgers_never_decrease(kind, seed, K, tau):
    trace = run_solver(GAME, SolverConfig(kind=kind, K=K, seed=seed, tau=tau, gap_every=50))
    for name in COST_COLUMNS:
        assert np.all(np.diff(getattr(trace, name)) >= 0), name


def schema_values(key):
    """Values of one config key that the parser accepts."""
    typ, rule, default = _SCHEMA[key]
    if typ == "int":
        values = st.integers(min_value=rule)
        return values if default is None else st.just(default) | values
    if rule is not None:
        return st.sampled_from(rule)
    floats = st.floats(allow_nan=False, allow_infinity=False)
    if typ == "float_or_auto":
        return st.none() | floats
    if typ == "float":
        return floats
    return st.lists(st.sampled_from(KINDS), max_size=4).map(",".join)


configs = st.lists(st.sampled_from(sorted(_SCHEMA)), unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: schema_values(key) for key in keys})
)


@PROPERTY
@given(configs)
def test_echo_lines_round_trip(entries):
    cfg = Config(entries=entries)
    again = parse_config_text("\n".join(cfg.echo_lines()))
    assert again.entries == entries
    assert again.echo_lines() == cfg.echo_lines()
