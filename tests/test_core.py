"""Prox operators and the deterministic random-stream contract."""

import tracemalloc

import numpy as np
import pytest
from conftest import OnDemandStream, simplex_projection_oracle, sort_rule_projection
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vistep import (
    EstimatorKind,
    FREE,
    ProxSpec,
    RngStream,
    SolverConfig,
    gen_policeman_burglar,
    project_simplex,
    prox_eval,
    rng_stream,
    run_solver,
)
from vistep import core
from vistep.core import _ROW_BLOCK_MAX, _TAPE, _TAPE_FIRST


def test_project_simplex_known_values():
    np.testing.assert_allclose(project_simplex([0.3, 0.7]), [0.3, 0.7], atol=1e-15)
    np.testing.assert_allclose(project_simplex([2.0, 0.0]), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(project_simplex([0.5] * 4), [0.25] * 4, atol=1e-15)
    np.testing.assert_allclose(project_simplex([-1.0, -1.0]), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(project_simplex([10.0, 0.0, 0.0]), [1.0, 0.0, 0.0], atol=1e-15)


def test_project_simplex_matches_support_enumeration():
    rng = rng_stream(11, 0)
    for _ in range(400):
        d = rng.integers(6) + 1
        scale = 10.0 ** (rng.integers(3) - 1)
        v = scale * rng.normal(d)
        got = project_simplex(v)
        want = simplex_projection_oracle(v)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_projection_feasible_and_idempotent():
    rng = rng_stream(12, 0)
    for _ in range(200):
        v = 5.0 * rng.normal(8)
        p = project_simplex(v)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert p.min() >= 0.0
        np.testing.assert_allclose(project_simplex(p), p, atol=1e-12)


def test_projection_nonexpansive():
    rng = rng_stream(13, 0)
    for _ in range(1000):
        a = 3.0 * rng.normal(5)
        b = 3.0 * rng.normal(5)
        lhs = np.linalg.norm(project_simplex(a) - project_simplex(b))
        rhs = np.linalg.norm(a - b)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-15


def test_projection_variational_characterization():
    # <v - P(v), x - P(v)> <= 0 for every feasible x is what makes P(v)
    # the projection
    rng = rng_stream(14, 0)
    for _ in range(100):
        v = 4.0 * rng.normal(6)
        p = project_simplex(v)
        for _ in range(20):
            x = project_simplex(rng.normal(6))
            assert float(np.dot(v - p, x - p)) <= 1e-10


def test_project_simplex_rejects_bad_shapes():
    with pytest.raises(ValueError):
        project_simplex(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        project_simplex(np.zeros(0))


def test_project_simplex_rejects_non_finite_input():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="not finite"):
            project_simplex(np.array([0.2, bad, 0.5]))


def test_project_simplex_of_huge_entries_is_the_top_vertex():
    # at |v| >= 2^53 the threshold's -1 is lost to rounding; the projection
    # of v equals that of v shifted by a constant
    np.testing.assert_array_equal(project_simplex(np.array([-1e200, -3e199, 5e199])), [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(project_simplex(np.array([4e16, 4e16 + 8.0, 0.0])), [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(project_simplex(np.array([1e300, 1e300])), [0.5, 0.5])


def _projection_cases():
    """Vectors of length 1 to 40 at scales 1e-3 to 1e12, some with ties
    (entries on a coarse grid, or one value repeated) and some past 2^53,
    where the sort rule shifts by the largest entry."""
    pick = np.random.default_rng(28)
    for case in range(3000):
        n = int(pick.integers(1, 41))
        v = pick.normal(size=n) * 10.0 ** pick.integers(-3, 13)
        if case % 5 == 1:
            v = np.round(v * 4.0 / np.abs(v).max()) / 4.0
        elif case % 5 == 2:
            v = np.full(n, v[0])
        elif case % 5 == 3:
            v = v / np.abs(v).max() * 2.0**60 + pick.integers(-8, 9, n) * 2.0**10
        yield v


def test_project_simplex_keeps_the_sort_rule_bits():
    shifted = 0
    for v in _projection_cases():
        want = sort_rule_projection(v)
        assert project_simplex(v).tobytes() == want.tobytes(), v
        out = np.full(v.size, np.nan)
        assert project_simplex(v, out) is out
        assert out.tobytes() == want.tobytes()
        u = np.sort(v)[::-1]
        shifted += not np.any(u * np.arange(1.0, v.size + 1.0) > u.cumsum() - 1.0)
    assert shifted > 0  # the |u_1| >= 2^53 path ran


def test_prox_eval_keeps_the_sort_rule_bits_and_never_writes_its_input():
    pick = np.random.default_rng(29)
    for case in range(400):
        blocks = tuple(int(b) for b in pick.integers(1, 12, size=int(pick.integers(1, 6))))
        if case % 4 == 0:
            blocks += (1,)
        v = pick.normal(size=sum(blocks)) * 10.0 ** pick.integers(-3, 13)
        if case % 3 == 0:
            v = np.round(v / np.abs(v).max() * 3.0)
        before = v.copy()
        got = prox_eval(ProxSpec(blocks), v)
        assert v.tobytes() == before.tobytes()
        starts = np.cumsum((0,) + blocks)
        want = np.concatenate([sort_rule_projection(v[a:b]) for a, b in zip(starts[:-1], starts[1:])])
        assert got.tobytes() == want.tobytes()


def _per_block_sort_rule(v, blocks):
    starts = np.cumsum((0,) + blocks)
    return np.concatenate([sort_rule_projection(v[a:b]) for a, b in zip(starts[:-1], starts[1:])])


def test_equal_blocks_keep_the_sort_rule_bits_on_both_paths():
    # 1-4 blocks of one length, from 1 to 16 past the longest that is
    # projected as a row, so both the row path and the per-block path run
    cases = list(_projection_cases())
    shifted = 0
    for i, v in enumerate(cases[:2400]):
        count = i % 4 + 1
        b = i % (_ROW_BLOCK_MAX + 16) + 1
        spec = ProxSpec((b,) * count)
        assert (spec.rows is not None) == (b <= _ROW_BLOCK_MAX)
        # the block cases are cut from the tied, 2^60-scale and random cases
        v = np.resize(v, count * b)
        if i % 50 == 0:
            v[:] = 0.0
        before = v.copy()
        got = prox_eval(spec, v)
        assert v.tobytes() == before.tobytes()
        assert got.tobytes() == _per_block_sort_rule(v, spec.blocks).tobytes(), (spec, v)
        u = -np.sort(-v.reshape(count, b), axis=1)
        shifted += not np.all(np.any(u * np.arange(1.0, b + 1.0) > u.cumsum(axis=1) - 1.0, axis=1))
    assert shifted > 0  # some row took the |u_1| >= 2^53 shift


def test_a_row_past_2_53_falls_back_with_the_sort_rule_bits():
    spec = ProxSpec((3, 3))
    v = np.array([0.2, 0.5, -0.1, 4e16, 4e16 + 8.0, 0.0])
    assert prox_eval(spec, v).tobytes() == _per_block_sort_rule(v, (3, 3)).tobytes()
    np.testing.assert_array_equal(prox_eval(spec, v)[3:], [0.0, 1.0, 0.0])


def test_the_support_is_the_last_passing_index_even_past_a_failing_one():
    # near 2^52 the rounded test j*w_j < t_j passes at j = 1 and 3 but not
    # at 2: the sort rule takes j = 3, a scan that stops at the first
    # failure would take j = 1
    v = 2.0**52 + np.array([10.0, -19.5, 18.0, 18.0, 0.0, -16.0, 19.0, -19.0, 3.0])
    w = np.sort(-v)
    passing = w * np.arange(1.0, 10.0) < w.cumsum() + 1.0
    assert passing[:3].tolist() == [True, False, True] and not passing[3:].any()
    for blocks in ((9,), (9, 9)):
        x = np.resize(v, sum(blocks))
        assert prox_eval(ProxSpec(blocks), x).tobytes() == _per_block_sort_rule(x, blocks).tobytes()
    # repeated to blocks longer than a row: the last index fails, so the
    # rule does not stop there, and passing indices still follow failing ones
    for n in (37, 45, 900):
        x = np.resize(v, n)
        w = np.sort(-x)
        passing = w * np.arange(1.0, n + 1.0) < w.cumsum() + 1.0
        assert not passing[-1] and not passing[: passing.nonzero()[0][-1]].all()
        _sort_rule_bits_with_and_without_out(x)
        x = np.resize(v, 2 * n)
        assert prox_eval(ProxSpec((n, n)), x).tobytes() == _per_block_sort_rule(x, (n, n)).tobytes()


def _sort_rule_bits_with_and_without_out(v):
    want = sort_rule_projection(v).tobytes()
    assert project_simplex(v).tobytes() == want, v
    out = np.full(v.size, np.nan)
    assert project_simplex(v, out) is out
    assert out.tobytes() == want, v


def _last_passes(v):
    """The sort rule's support test at the last sorted index, with its rounding."""
    u = np.sort(v)[::-1]
    return bool(u[-1] * v.size > u.cumsum()[-1] - 1.0)


def _count_rank_calls(monkeypatch) -> list:
    """The lengths project_simplex ranks: one per projection that takes
    the full support test, none for one that exits at the last index."""
    calls, ranks = [], core._ranks
    monkeypatch.setattr(core, "_ranks", lambda n: calls.append(n) or ranks(n))
    return calls


def test_the_full_support_exit_keeps_the_sort_rule_bits(monkeypatch):
    calls = _count_rank_calls(monkeypatch)
    pick = np.random.default_rng(33)
    cases = []
    for n in (1, 2, 37, 900):
        cases += [np.full(n, c) for c in (0.0, -0.0, 1.0 / 3.0, -2.5, 1e12, -1e-300)]
        cases += [pick.normal(size=n) * scale for scale in (1e-3, 1.0, 1e3)]
        cases += [np.round(pick.normal(size=n) * 2.0) / 2.0]
    # no index passes: the rule shifts by the largest entry and projects again
    cases += [np.array([4e16, 4e16 + 8.0, 0.0]), 3e17 + 64.0 * np.arange(40.0)]
    exits = shifted = 0
    for v in cases:
        before = len(calls)
        _sort_rule_bits_with_and_without_out(v)
        exited = len(calls) == before
        assert exited == _last_passes(v), v
        exits += exited
        u = np.sort(v)[::-1]
        shifted += not np.any(u * np.arange(1.0, v.size + 1.0) > u.cumsum() - 1.0)
    assert 0 < exits < len(cases)  # both paths ran
    assert shifted == 2


def _threshold_cases(n, pick):
    """Vectors whose last sorted entry sits exactly at the threshold of the
    support test, and a few ulps to either side: n - 1 entries x and one
    x + 1 tie the test exactly; with other entries, the last entry is
    bisected to the float where the rounded test starts to pass.  A block
    of one passes until u - 1 rounds to u, just past 2^53."""
    if n == 1:
        for k in range(-2, 5):
            yield np.array([2.0**53 + 2.0 * k])
        return
    for x in (0.5, -0.25, 3.0):
        tied = np.array([x + 1.0] + [x] * (n - 1))
        u = np.sort(tied)[::-1]
        assert u[-1] * n == u.cumsum()[-1] - 1.0  # exactly at the threshold
        for step in (-np.inf, np.inf):
            moved = tied.copy()
            moved[-1] = np.nextafter(x, step)
            yield moved
        yield tied
    rest = 2.0 + pick.uniform(0.0, 0.1 / n, n - 1)
    fails, passes = -1e6, float(rest.min())
    assert not _last_passes(np.append(rest, fails)) and _last_passes(np.append(rest, passes))
    while np.nextafter(fails, np.inf) != passes:
        mid = fails + (passes - fails) / 2.0
        if _last_passes(np.append(rest, mid)):
            passes = mid
        else:
            fails = mid
    x = passes
    for _ in range(3):
        x = np.nextafter(x, -np.inf)
    for _ in range(7):
        yield np.append(rest, x)
        x = np.nextafter(x, np.inf)


@pytest.mark.parametrize("n", [1, 2, 37, 900])
def test_the_exit_keeps_the_bits_at_and_one_ulp_around_the_threshold(n, monkeypatch):
    calls = _count_rank_calls(monkeypatch)
    seen = set()
    for v in _threshold_cases(n, np.random.default_rng(n)):
        before = len(calls)
        _sort_rule_bits_with_and_without_out(v)
        exited = len(calls) == before
        assert exited == _last_passes(v), v
        seen.add(exited)
    assert seen == {True, False}


def test_non_finite_rows_raise_the_per_block_error():
    for blocks in ((4, 4), (4, 4, 4), (50, 50), (4, 3)):
        for bad in (np.nan, np.inf, -np.inf):
            for at in (1, sum(blocks) - 2):
                v = np.linspace(-1.0, 1.0, sum(blocks))
                v[at] = bad
                before = v.copy()
                with pytest.raises(ValueError, match="^cannot project a vector whose entries are not finite"):
                    prox_eval(ProxSpec(blocks), v)
                assert v.tobytes() == before.tobytes()
    # finite rows whose sums overflow raise the same text
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="whose sum overflows"):
        prox_eval(ProxSpec((2, 2)), np.array([0.0, 1.0, -1.7e308, -1.7e308]))


def test_prox_eval_names_the_shape_of_a_vector_that_is_not_1_d():
    for shape in ((2, 25), (50, 1), (1, 50)):
        with pytest.raises(ValueError, match=rf"1-d vector, got shape \({shape[0]}, {shape[1]}\)"):
            prox_eval(ProxSpec((25, 25)), np.zeros(shape))
    with pytest.raises(ValueError, match=r"1-d vector, got shape \(\)"):
        prox_eval(ProxSpec((1,)), np.float64(0.5))
    # a free spec maps any shape, as before
    assert prox_eval(FREE, np.ones((2, 3))).shape == (2, 3)


def test_the_n5_game_projects_rows_and_other_specs_project_blocks(monkeypatch):
    # a K=50 run of the paper's n=5 game never reaches the per-block path
    def refuse(v, out=None):
        raise AssertionError("project_simplex called")

    monkeypatch.setattr(core, "project_simplex", refuse)
    p = gen_policeman_burglar(5, seed=1)
    assert p.prox.rows == (2, 25)
    for name in ("fulldet", "vr", "coord"):
        run_solver(p, SolverConfig(EstimatorKind(name), K=50, seed=3, gap_every=10))
    monkeypatch.undo()
    # long or unequal blocks go block by block
    calls = []

    def count(v, out=None):
        calls.append(v.size)
        return project_simplex(v, out)

    monkeypatch.setattr(core, "project_simplex", count)
    v = np.linspace(-1.0, 2.0, 200)
    for blocks in ((100, 100), (25, 24)):
        calls.clear()
        spec = ProxSpec(blocks)
        assert spec.rows is None
        got = prox_eval(spec, v[: sum(blocks)])
        assert calls == list(blocks)
        assert got.tobytes() == _per_block_sort_rule(v[: sum(blocks)], blocks).tobytes()


def test_prox_spec_validation():
    assert FREE.free
    assert FREE.dim is None
    spec = ProxSpec((2, 3))
    assert not spec.free
    assert spec.dim == 5
    with pytest.raises(ValueError):
        ProxSpec((0, 3))
    with pytest.raises(ValueError):
        ProxSpec(())


def test_prox_spec_rejects_non_integer_block_lengths():
    with pytest.raises(ValueError, match=r"blocks\[0\] must be an integer, got 2.5"):
        ProxSpec((2.5, 3))
    with pytest.raises(ValueError, match=r"blocks\[1\] must be an integer"):
        ProxSpec((2, 3.0))
    assert ProxSpec((np.int64(2), 3)).blocks == (2, 3)


def test_prox_eval_free_returns_a_copy():
    v = np.array([1.0, -2.0, 3.0])
    out = prox_eval(FREE, v)
    np.testing.assert_array_equal(out, v)
    out[0] = 99.0
    assert v[0] == 1.0


def test_prox_eval_blockwise_matches_per_block_projection():
    spec = ProxSpec((2, 3))
    v = rng_stream(15, 0).normal(5)
    out = prox_eval(spec, v)
    np.testing.assert_array_equal(out[:2], project_simplex(v[:2]))
    np.testing.assert_array_equal(out[2:], project_simplex(v[2:]))


def test_prox_eval_errors():
    with pytest.raises(ValueError):
        prox_eval(ProxSpec((2, 2)), np.zeros(5))


def test_stream_reproducible_and_distinct():
    a = RngStream(7, 3).uniform(6)
    b = RngStream(7, 3).uniform(6)
    np.testing.assert_array_equal(a, b)
    c = RngStream(7, 4).uniform(6)
    d = RngStream(8, 3).uniform(6)
    assert np.any(a != c)
    assert np.any(a != d)


def test_uniform_batch_equals_scalar_sequence():
    # twin-stream oracles in the estimator tests replay batched draws with
    # scalar calls, so the two consumption patterns must coincide
    batch = RngStream(9, 1).uniform(8)
    s = RngStream(9, 1)
    scalars = np.array([s.uniform() for _ in range(8)])
    np.testing.assert_array_equal(batch, scalars)


def test_integer_twin_mapping():
    s = RngStream(5, 0)
    twin = RngStream(5, 0)
    for _ in range(50):
        i = s.integers(7)
        u = twin.uniform()
        assert i == min(int(u * 7), 6)


def test_integers_batch_equals_scalar_loop():
    got = RngStream(21, 2).integers(5, size=40)
    s = RngStream(21, 2)
    want = np.array([s.integers(5) for _ in range(40)])
    np.testing.assert_array_equal(got, want)


def test_integer_frequencies_uniform():
    counts = np.bincount(RngStream(3, 0).integers(4, size=20000), minlength=4)
    # four standard errors around the uniform expectation of 5000
    assert np.all(np.abs(counts - 5000) <= 245)


def test_box_muller_twin_reproduction():
    z = RngStream(6, 0).normal(6)
    twin = RngStream(6, 0)
    u1 = twin.uniform(3)
    u2 = twin.uniform(3)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * np.pi * u2
    want = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    np.testing.assert_array_equal(z, want)


def _box_muller_reference(stream, size):
    """The Box-Muller formula written out with whole-array temporaries: the
    bytes RngStream.normal must keep."""
    count = int(np.prod(size))
    half = (count + 1) // 2
    u1 = stream.uniform(half)
    u2 = stream.uniform(half)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:count].reshape(size)


@pytest.mark.parametrize("size", [1, 7, 50, np.int64(33), (1,), (49,), (500,), (3, 5), (401, 3), (4000, 50), [2, 9], 0])
def test_box_muller_keeps_the_reference_bytes(size):
    # odd counts drop the last sine; two draws in a row check the stream position
    stream, twin = RngStream(8, 3), RngStream(8, 3)
    for _ in range(2):
        got, want = stream.normal(size), _box_muller_reference(twin, size)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_normal_moments():
    z = RngStream(17, 0).normal(40000)
    assert abs(z.mean()) <= 4.0 / np.sqrt(40000)
    assert abs(z.var() - 1.0) <= 4.0 * np.sqrt(2.0 / 40000)


def test_scalar_draw_types():
    s = RngStream(0, 0)
    assert isinstance(s.uniform(), float)
    assert isinstance(s.integers(3), int)


def test_subset_uniform_over_pairs():
    s = RngStream(19, 0)
    counts = {}
    for _ in range(12000):
        pair = frozenset(s.subsets(4, 2).tolist())
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 6
    # 6 equally likely pairs, expectation 2000, four standard errors
    for c in counts.values():
        assert abs(c - 2000) <= 163


def test_subset_members_distinct_and_in_range():
    s = RngStream(20, 0)
    for _ in range(100):
        idx = s.subsets(9, 4)
        assert len(set(idx.tolist())) == 4
        assert idx.min() >= 0
        assert idx.max() < 9


def test_subsets_batch_equals_scalar_rows():
    for n, k, rows in [(6, 2, 25), (500, 50, 64), (50, 5, 500)]:
        got = RngStream(23, 0).subsets(n, k, rows=rows)
        s = RngStream(23, 0)
        want = np.stack([s.subsets(n, k) for _ in range(rows)])
        np.testing.assert_array_equal(got, want)


def _same_draw(got, want):
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    return type(got) is type(want) and got == want and repr(got) == repr(want)


# sizes around the tape's length, where a draw leaves the tape for the generator
_SIZES = st.sampled_from([0, 1, 2, 3, 7, 50, 51, _TAPE - 2, _TAPE - 1, _TAPE, _TAPE + 1, 2 * _TAPE + 3])
_CALLS = st.one_of(
    st.tuples(st.just("uniform"), st.one_of(st.none(), _SIZES, st.tuples(st.integers(0, 9), st.integers(0, 9)))),
    st.tuples(st.just("integers"), st.integers(1, 1000), st.one_of(st.none(), _SIZES)),
    st.tuples(st.just("normal"), st.one_of(_SIZES, st.sampled_from([(25,), (50,), (3, 5), (41, 100)]))),
    st.tuples(st.just("subsets"), st.integers(1, 60), st.integers(1, 60), st.one_of(st.none(), st.integers(0, 120))),
)
# runs of one call, so that repeated normal shapes fill derived blocks
_PROGRAMS = st.lists(st.tuples(_CALLS, st.integers(1, 90)), min_size=1, max_size=8)


def _replay(stream, program):
    draws = []
    for call, times in program:
        name, *args = call
        if name == "subsets":
            n, k, rows = args
            args = [n, min(k, n), rows]
        draws += [getattr(stream, name)(*args) for _ in range(times)]
    return draws


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), program=_PROGRAMS)
@example(seed=3, program=[((("normal", (50,))), 30), (("normal", 7), 5), (("uniform", None), 1), (("normal", (50,)), 90)])
@example(seed=4, program=[(("normal", 9), 3), (("uniform", None), 1), (("normal", 9), 3), (("integers", 5, None), 1), (("normal", 9), 2)])
@example(seed=4, program=[(("normal", 9), 3), (("uniform", 3), 1), (("normal", 9), 3), (("subsets", 6, 2, None), 1), (("normal", 9), 2)])
@example(seed=6, program=[(("uniform", None), 1), (("uniform", _TAPE - 24), 1), (("uniform", 100), 1), (("uniform", None), 3)])
@example(seed=4, program=[(("uniform", None), 4095), (("normal", _TAPE), 1), (("integers", 7, None), 3)])
@example(seed=5, program=[(("integers", 3, None), 10), (("uniform", 2 * _TAPE + 3), 1), (("uniform", None), _TAPE)])
@example(seed=2, program=[(("uniform", None), _TAPE_FIRST), (("uniform", _TAPE), 1), (("uniform", None), 2)])
@example(seed=2, program=[(("uniform", _TAPE - 1), 1), (("normal", _TAPE), 1), (("integers", 7, None), 2)])
@example(seed=2, program=[(("uniform", None), 1024), (("uniform", _TAPE), 1), (("uniform", None), 2)])
@example(seed=2, program=[(("uniform", 1000), 1), (("uniform", 24), 1), (("normal", _TAPE), 1), (("integers", 7, None), 2)])
@example(seed=2, program=[(("normal", 9), 2), (("uniform", _TAPE), 1), (("normal", 9), 2)])
@example(seed=2, program=[(("normal", 9), 2), (("uniform", None), 38), (("normal", 9), 2)])
@example(seed=9, program=[(("uniform", 3), 1), (("uniform", _TAPE_FIRST - 3), 1), (("uniform", None), 2)])
@example(seed=9, program=[(("uniform", None), 5), (("uniform", _TAPE - 1), 1), (("uniform", None), 3)])
@example(seed=9, program=[(("uniform", _TAPE - 1), 6), (("uniform", None), 1), (("uniform", _TAPE), 1), (("uniform", None), 2)])
def test_tape_served_draws_keep_the_on_demand_bits(seed, program):
    # the first three examples change the normal size or take another draw partway
    # through a derived block; the fourth refills a tape whose list copy a scalar
    # draw made; the next two take a large draw with part of the tape unserved,
    # the two after them one with the tape used up, and the next two replace the
    # tape while a derived block has rows left, at a position that is a row of it.
    # Then a sized draw uses the tape up exactly before a scalar one; a draw of
    # _TAPE - 1 finds part of the tape unserved; and a draw of _TAPE finds the
    # most a tape ever holds unserved, _TAPE - 1 values (a new tape draws fewer
    # than _TAPE values past the draw that made it), so it is still a new array
    got = _replay(rng_stream(seed, 7), program)
    want = _replay(OnDemandStream(seed, 7), program)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert _same_draw(a, b), (i, a, b)


def test_a_large_draw_after_a_used_up_tape_replays_none_of_it():
    s, ref = rng_stream(8, 3), OnDemandStream(8, 3)
    for large in (s.uniform, s.normal, s.uniform):
        # scalar draws up to the last entry of a tape, then a draw past the tape
        assert s.uniform() == ref.uniform()
        while s._at < s._tape.size:
            assert s.uniform() == ref.uniform()
        assert large(_TAPE).tobytes() == getattr(ref, large.__name__)(_TAPE).tobytes()
        assert [s.uniform() for _ in range(3)] == [ref.uniform() for _ in range(3)]


def test_a_large_draw_allocates_its_arrays_and_keeps_none():
    # a draw of the tape's length or more is one array of uniforms (and, for
    # normals, one of results), with the tape's unserved rest passed on: no
    # second copy while it is formed, and no more than a tape held after it
    n = 64 * _TAPE
    s = RngStream(2, 0)
    s.uniform(3)
    tracemalloc.start()
    try:
        u = s.uniform(n)
        _, uniform_peak = tracemalloc.get_traced_memory()
        # the draw leaves an empty tape, which shares no memory with what it returned
        assert s._tape.size == 0 and not np.shares_memory(s._tape, u)
        del u
        tracemalloc.reset_peak()
        z = s.normal(n)
        _, normal_peak = tracemalloc.get_traced_memory()
        assert s._tape.size == 0 and not np.shares_memory(s._tape, z)
    finally:
        tracemalloc.stop()
    slack = 8 * _TAPE + 4096
    assert uniform_peak < 8 * n + slack
    assert normal_peak < 2 * 8 * n + slack


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: s.integers(2.5), "n must be an integer, got 2.5"),
        (lambda s: s.integers(True), "n must be an integer, got True"),
        (lambda s: s.integers(np.float64(3.0), size=4), "n must be an integer"),
        (lambda s: s.normal(-1), r"size must be nonnegative, got -1"),
        (lambda s: s.normal(2.5), "size must be an integer, got 2.5"),
        (lambda s: s.normal((3, 2.0)), "size must be an integer, got 2.0"),
        (lambda s: s.uniform(-2), "size must be nonnegative, got -2"),
        (lambda s: s.uniform(True), "size must be an integer, got True"),
        (lambda s: s.integers(5, size=(2, -1)), r"size must be nonnegative, got \(2, -1\)"),
        (lambda s: s.subsets(5, 2.0), "k must be an integer, got 2.0"),
        (lambda s: s.subsets(5.0, 2), "n must be an integer, got 5.0"),
        (lambda s: s.subsets(5, 2, rows=1.5), "rows must be an integer, got 1.5"),
        (lambda s: s.subsets(5, 2, rows=-1), "rows must be nonnegative, got -1"),
        (lambda s: s.integers(2**32 + 1), r"need 1 <= n <= 2\*\*32, got n=4294967297"),
        (lambda s: s.integers(2**60, size=3), r"need 1 <= n <= 2\*\*32, got n=1152921504606846976"),
    ],
)
def test_draw_arguments_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call(RngStream(1, 0))


class _QuarterGrid:
    """A stand-in generator whose uniforms take only the values 0, 1/4,
    1/2 and 3/4, so that most rows tie across the k-th smallest value."""

    def __init__(self, seed):
        self._gen = np.random.default_rng(seed)

    def random(self, size=None, out=None):
        if out is None:
            return self._gen.integers(0, 4, size) / 4
        out[...] = self._gen.integers(0, 4, out.shape) / 4
        return out


def test_subsets_batch_keeps_the_stable_argsort_order_on_ties():
    pick = np.random.default_rng(5)
    for case in range(200):
        n = int(pick.integers(1, 40))
        k = n if case % 10 == 0 else int(pick.integers(1, n + 1))
        rows = int(pick.integers(1, 30))
        s = RngStream(0, 0)
        s._gen = _QuarterGrid(case)
        u = _QuarterGrid(case).random((rows, n))
        np.testing.assert_array_equal(s.subsets(n, k, rows), np.argsort(u, axis=-1, kind="stable")[:, :k])


def test_rng_errors():
    s = RngStream(1, 0)
    with pytest.raises(ValueError):
        s.integers(0)
    # a uniform has 53 bits, so n = 2**32 still gives each value 1/n within a factor 1 + 2**-21
    assert 0 <= s.integers(2**32) < 2**32
    assert s.integers(2**32, size=3).max() < 2**32
    with pytest.raises(ValueError):
        s.subsets(3, 4)
    with pytest.raises(ValueError):
        s.subsets(3, 0)
    # a float seed or stream id would be truncated to another stream
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        rng_stream(1.5)
    with pytest.raises(ValueError, match="stream_id must be an integer, got 0.5"):
        rng_stream(1, 0.5)
    assert rng_stream(np.int64(1), np.int64(2)).uniform() == rng_stream(1, 2).uniform()
    # numpy's own message for a negative entropy names neither argument
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        rng_stream(-1)
    with pytest.raises(ValueError, match="stream_id must be nonnegative, got -2"):
        rng_stream(1, np.int64(-2))
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        gen_policeman_burglar(3, seed=-1)


@pytest.mark.parametrize("flag", [True, np.True_, False, np.False_])
def test_bools_are_not_integers(flag):
    # bool is an int subclass; numpy would fail on it later without naming the argument
    with pytest.raises(ValueError, match=f"K must be an integer, got {flag!r}"):
        SolverConfig(EstimatorKind("fulldet"), K=flag)
    with pytest.raises(ValueError, match="gap_every must be an integer"):
        SolverConfig(EstimatorKind("fulldet"), K=1, gap_every=flag)
    with pytest.raises(ValueError, match="n must be an integer"):
        gen_policeman_burglar(flag)
    with pytest.raises(ValueError, match="seed must be an integer"):
        rng_stream(flag)
    with pytest.raises(ValueError, match="stream_id must be an integer"):
        rng_stream(1, flag)
    with pytest.raises(ValueError, match=r"blocks\[1\] must be an integer"):
        ProxSpec((2, flag))
