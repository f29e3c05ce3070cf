"""Aggregation kernels — the operator-level contribution of AGL (§3.3.2).

A GNN layer aggregates edge values into destination nodes
(``out[dst[e]] += val[e]``). AGL's *edge partitioning* strategy sorts
edges by destination so the adjacency splits into destination-disjoint
partitions that threads can reduce without conflicts. We reproduce the
CPU trade-off with two kernels behind one reduction loop:

- ``add_at``      — buffered ``ufunc.at`` scatter: conflict-safe but
                    slow (the "conventional framework" kernel; the
                    ``pyg_sim`` stand-in and AGL without ``partition``
                    use it).
- ``partitioned`` — destination-sorted segment reduction via
                    ``ufunc.reduceat`` over destination-disjoint spans
                    on a thread pool. This is AGL's edge-partitioning
                    kernel (AGL with ``partition``, and the ``dgl_sim``
                    stand-in's fused kernel).

Both kernels are exact (no approximation) and are property-tested
against each other. Edge arrays are **assumed sorted by ``dst``** for
``partitioned`` — :mod:`repro.core.vectorize` guarantees this, exactly
as the paper states ("Edges in the sparse matrix are sorted by their
destination nodes").
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Destination-disjoint spans per ``partitioned`` reduction.
N_PARTITIONS = 16
#: Threads reducing those spans (numpy releases the GIL in ``reduceat``).
N_THREADS = 8

_POOL: ThreadPoolExecutor | None = None


def _pool() -> ThreadPoolExecutor:
    global _POOL
    if _POOL is None:
        _POOL = ThreadPoolExecutor(max_workers=N_THREADS)
    return _POOL


def segment_starts(sorted_dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (unique destinations, start offsets) of a dst-sorted edge list.

    ``starts[i]`` is the first edge index of segment ``uniq[i]``;
    segments are contiguous because the input is sorted.
    """
    if sorted_dst.size == 0:
        return np.empty(0, dtype=sorted_dst.dtype), np.empty(0, dtype=np.int64)
    mask = np.empty(sorted_dst.shape, dtype=bool)
    mask[0] = True
    np.not_equal(sorted_dst[1:], sorted_dst[:-1], out=mask[1:])
    starts = np.flatnonzero(mask)
    return sorted_dst[starts], starts


def edge_partitions(n_edges: int, starts: np.ndarray, t: int) -> list[tuple[int, int]]:
    """Split ``n_edges`` dst-sorted edges into ≤``t`` destination-disjoint
    spans ``(lo, hi)``.

    Split points are snapped to segment boundaries so no destination row
    straddles two partitions — AGL's conflict-free property.
    """
    if n_edges == 0 or t <= 1 or starts.size <= 1:
        return [(0, n_edges)] if n_edges else []
    # Ideal split points, snapped to the nearest following segment start.
    cuts = [0]
    for i in range(1, t):
        ideal = i * n_edges // t
        j = int(np.searchsorted(starts, ideal, side="left"))
        cut = int(starts[j]) if j < starts.size else n_edges
        if cut > cuts[-1]:
            cuts.append(cut)
    if cuts[-1] != n_edges:
        cuts.append(n_edges)
    return list(zip(cuts[:-1], cuts[1:]))


@dataclass
class Aggregator:
    """Scatter/segment reduction engine for one kernel choice.

    Parameters
    ----------
    kind : {"add_at", "partitioned"}
    n_partitions : number of destination-disjoint spans the
        ``partitioned`` kernel reduces on the thread pool.
    """

    kind: str = "partitioned"
    n_partitions: int = N_PARTITIONS

    def _reduce(
        self,
        ufunc: np.ufunc,
        edge_vals: Callable[[int, int], np.ndarray],
        dst: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """``out[dst[e]] = ufunc(out[dst[e]], vals[e])`` over all edges,
        where ``edge_vals(lo, hi)`` yields the values of edges [lo, hi).

        ``partitioned`` overwrites each present destination row with the
        span's ``reduceat`` result, so ``out`` must hold the ufunc's
        identity there; ``add_at`` folds into ``out`` as it stands.
        """
        m = dst.shape[0]
        if m == 0:
            return out
        if self.kind == "add_at":
            ufunc.at(out, dst, edge_vals(0, m))
            return out
        uniq, starts = segment_starts(dst)

        def reduce_span(span: tuple[int, int]) -> None:
            lo, hi = span
            s_lo, s_hi = np.searchsorted(starts, span)
            out[uniq[s_lo:s_hi]] = ufunc.reduceat(edge_vals(lo, hi), starts[s_lo:s_hi] - lo, axis=0)

        spans = edge_partitions(m, starts, self.n_partitions)
        if len(spans) > 1:
            list(_pool().map(reduce_span, spans))
        else:
            reduce_span(spans[0])
        return out

    def scatter_add(
        self, values: np.ndarray, dst: np.ndarray, n_nodes: int
    ) -> np.ndarray:
        """out[n_nodes, d] with out[dst[e]] += values[e]; dst sorted for
        'partitioned'."""
        out = np.zeros((n_nodes,) + values.shape[1:], values.dtype)
        return self._reduce(np.add, lambda lo, hi: values[lo:hi], dst, out)

    def gather_scale_reduce(
        self,
        M: np.ndarray,
        gather_idx: np.ndarray,
        scale: np.ndarray | None,
        sorted_dst: np.ndarray,
        n_nodes: int,
    ) -> np.ndarray:
        """Fused per-edge gather → scale → per-destination reduce:
        ``out[sorted_dst[e]] += scale[e] * M[gather_idx[e]]``.

        This is the aggregation a GNN layer actually runs; fusing it is
        what makes edge partitioning pay off — each destination-disjoint
        span gathers, scales and reduces independently on its own
        thread, with no write conflicts (the paper's §3.3.2 argument).
        The ``add_at`` kernel runs the same math unfused + buffered,
        which is what conventional frameworks do.
        """

        def edge_vals(lo: int, hi: int) -> np.ndarray:
            vals = M[gather_idx[lo:hi]]
            return vals if scale is None else vals * scale[lo:hi, None]

        out = np.zeros((n_nodes, M.shape[1]), dtype=M.dtype)
        return self._reduce(np.add, edge_vals, sorted_dst, out)

    def segment_max(self, values: np.ndarray, dst: np.ndarray, n_nodes: int) -> np.ndarray:
        """Per-destination max of 1-D edge values (−inf for empty rows)."""
        out = np.full(n_nodes, -np.inf, dtype=values.dtype)
        return self._reduce(np.maximum, lambda lo, hi: values[lo:hi], dst, out)

    def segment_softmax(
        self, scores: np.ndarray, dst: np.ndarray, n_nodes: int
    ) -> np.ndarray:
        """Numerically-stable softmax of edge scores within each
        destination segment (GAT attention, §2.2 / Veličković et al.)."""
        mx = self.segment_max(scores, dst, n_nodes)
        ex = np.exp(scores - mx[dst])
        denom = self.scatter_add(ex[:, None], dst, n_nodes)[:, 0]
        return ex / np.maximum(denom[dst], 1e-30)
