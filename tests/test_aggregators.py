"""Kernel equivalence: add_at ≡ partitioned, plus the
destination-disjoint partition invariants of the edge-partitioning
strategy (§3.3.2)."""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import aggregators
from repro.nn.aggregators import Aggregator, edge_partitions, segment_starts

KINDS = ["add_at", "partitioned"]


def _sorted_edges(rng, n_nodes, m):
    dst = np.sort(rng.integers(0, n_nodes, m))
    vals = rng.standard_normal((m, 4))
    return dst, vals


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m,n", [(0, 5), (1, 1), (17, 5), (200, 13), (1000, 50)])
def test_scatter_add_matches_reference(kind, m, n):
    rng = np.random.default_rng(m * 31 + n)
    dst, vals = _sorted_edges(rng, n, m)
    ref = np.zeros((n, 4))
    for e in range(m):
        ref[dst[e]] += vals[e]
    got = Aggregator(kind=kind).scatter_add(vals, dst, n)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_scatter_add_1d(kind):
    rng = np.random.default_rng(0)
    dst = np.sort(rng.integers(0, 7, 40))
    vals = rng.standard_normal(40)
    ref = np.zeros(7)
    np.add.at(ref, dst, vals)
    got = Aggregator(kind=kind).scatter_add(vals, dst, 7)
    np.testing.assert_allclose(got, ref, rtol=1e-12)


@pytest.mark.parametrize("threads", [False, True])
@pytest.mark.parametrize("t", [1, 2, 3, 8, 64])
def test_partitioned_any_partition_count(t, threads, monkeypatch):
    """Any span count gives the add_at result, whether the spans reduce
    one after another (a one-worker pool) or concurrently (the module's
    ``N_THREADS`` pool)."""
    if not threads:
        serial = ThreadPoolExecutor(max_workers=1)
        monkeypatch.setattr(aggregators, "_POOL", serial)
    rng = np.random.default_rng(t)
    dst, vals = _sorted_edges(rng, 20, 300)
    ref = Aggregator(kind="add_at").scatter_add(vals, dst, 20)
    got = Aggregator(kind="partitioned", n_partitions=t).scatter_add(vals, dst, 20)
    if not threads:
        serial.shutdown()
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_segment_max(kind):
    dst = np.array([0, 0, 2, 2, 2, 4])
    vals = np.array([1.0, 3.0, -5.0, -1.0, -2.0, 7.0])
    got = Aggregator(kind=kind).segment_max(vals, dst, 5)
    assert got[0] == 3.0 and got[2] == -1.0 and got[4] == 7.0
    assert np.isneginf(got[1]) and np.isneginf(got[3])


@pytest.mark.parametrize("kind", KINDS)
def test_segment_softmax_sums_to_one(kind):
    rng = np.random.default_rng(3)
    dst = np.sort(rng.integers(0, 10, 100))
    scores = rng.standard_normal(100) * 10
    a = Aggregator(kind=kind)
    alpha = a.segment_softmax(scores, dst, 10)
    sums = a.scatter_add(alpha[:, None], dst, 10)[:, 0]
    present = np.unique(dst)
    np.testing.assert_allclose(sums[present], 1.0, rtol=1e-9)
    assert (alpha > 0).all()


def test_segment_softmax_stability_large_scores():
    dst = np.array([0, 0, 0])
    scores = np.array([1000.0, 1000.0, 999.0])
    alpha = Aggregator(kind="partitioned").segment_softmax(scores, dst, 1)
    assert np.isfinite(alpha).all()
    np.testing.assert_allclose(alpha.sum(), 1.0)


def test_segment_starts_basic():
    dst = np.array([0, 0, 1, 3, 3, 3])
    uniq, starts = segment_starts(dst)
    np.testing.assert_array_equal(uniq, [0, 1, 3])
    np.testing.assert_array_equal(starts, [0, 2, 3])


def test_segment_starts_empty():
    uniq, starts = segment_starts(np.array([], dtype=np.int64))
    assert uniq.size == 0 and starts.size == 0


@pytest.mark.parametrize("t", [1, 2, 4, 16])
def test_edge_partitions_are_destination_disjoint(t):
    rng = np.random.default_rng(t)
    dst = np.sort(rng.integers(0, 30, 500))
    _, starts = segment_starts(dst)
    spans = edge_partitions(dst.size, starts, t)
    # spans tile [0, m) exactly
    assert spans[0][0] == 0 and spans[-1][1] == dst.size
    for (a, b), (c, d) in zip(spans[:-1], spans[1:]):
        assert b == c
        # conflict-free: no destination straddles a boundary
        assert dst[b - 1] != dst[b]


def test_edge_partitions_empty():
    assert edge_partitions(0, np.array([], dtype=np.int64), 4) == []


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, n - 1), min_size=0, max_size=120),
            st.integers(1, 12),
        )
    )
)
def test_property_partitioned_equals_add_at(args):
    n, dst_list, t = args
    dst = np.sort(np.array(dst_list, dtype=np.int64))
    rng = np.random.default_rng(len(dst_list))
    vals = rng.standard_normal((dst.size, 3))
    M = rng.standard_normal((n, 3))
    gather_idx = rng.integers(0, n, dst.size)
    scale = rng.standard_normal(dst.size)
    ref_agg = Aggregator(kind="add_at")
    got_agg = Aggregator(kind="partitioned", n_partitions=t)
    for call in (
        lambda a: a.scatter_add(vals, dst, n),
        lambda a: a.gather_scale_reduce(M, gather_idx, scale, dst, n),
        lambda a: a.gather_scale_reduce(M, gather_idx, None, dst, n),
        lambda a: a.segment_max(vals[:, 0], dst, n),
    ):
        np.testing.assert_allclose(call(got_agg), call(ref_agg), rtol=1e-10, atol=1e-10)
