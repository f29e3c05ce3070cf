"""Local (vectorized-batch) edge representation.

An :class:`Edges` holds a COO edge list over *local* node indices,
**sorted by destination** — the invariant the paper states for ``A_B``
("Edges in the sparse matrix are sorted by their destination nodes")
and the one AGL's edge-partitioning kernel requires. A precomputed
permutation sorted by source supports the backward pass (scattering
gradients to source nodes with the same conflict-free kernel).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregators import Aggregator


@dataclass
class Edges:
    """dst-sorted COO edges over ``n_nodes`` local nodes."""

    src: np.ndarray  # int64 [m]
    dst: np.ndarray  # int64 [m], non-decreasing
    w: np.ndarray  # float [m]
    n_nodes: int
    _src_order: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_arrays(
        cls, src: np.ndarray, dst: np.ndarray, w: np.ndarray | None, n_nodes: int
    ) -> "Edges":
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        w = np.ones(src.shape[0]) if w is None else np.asarray(w, dtype=np.float64)
        order = np.argsort(dst, kind="stable")
        return cls(src[order], dst[order], w[order], n_nodes)

    @property
    def m(self) -> int:
        return int(self.src.shape[0])

    @property
    def src_order(self) -> np.ndarray:
        if self._src_order is None:
            self._src_order = np.argsort(self.src, kind="stable")
        return self._src_order

    def with_self_loops(self, weight: float = 1.0) -> "Edges":
        """Append one self-loop per node (GCN/GAT aggregate over
        ``{v} ∪ N_v^+``, Eq. 1)."""
        ids = np.arange(self.n_nodes, dtype=np.int64)
        return Edges.from_arrays(
            np.concatenate([self.src, ids]),
            np.concatenate([self.dst, ids]),
            np.concatenate([self.w, np.full(self.n_nodes, weight)]),
            self.n_nodes,
        )

    def in_degrees(self, weighted: bool = False) -> np.ndarray:
        weights = self.w if weighted else None
        return np.bincount(self.dst, weights=weights, minlength=self.n_nodes).astype(np.float64, copy=False)

    def scatter_to_dst(self, agg: Aggregator, values: np.ndarray) -> np.ndarray:
        """out[dst[e]] += values[e] — values aligned with this edge order."""
        return agg.scatter_add(values, self.dst, self.n_nodes)

    def scatter_to_src(self, agg: Aggregator, values: np.ndarray) -> np.ndarray:
        """out[src[e]] += values[e] via the src-sorted permutation, so the
        partitioned kernel stays conflict-free in the backward pass."""
        o = self.src_order
        return agg.scatter_add(values[o], self.src[o], self.n_nodes)

    def aggregate(
        self, agg: Aggregator, M: np.ndarray, scale: np.ndarray | None = None
    ) -> np.ndarray:
        """Fused out[dst[e]] += scale[e] * M[src[e]] (forward direction)."""
        return agg.gather_scale_reduce(M, self.src, scale, self.dst, self.n_nodes)

    def aggregate_rev(
        self, agg: Aggregator, M: np.ndarray, scale: np.ndarray | None = None
    ) -> np.ndarray:
        """Fused out[src[e]] += scale[e] * M[dst[e]] (backward direction),
        reduced in src-sorted order to stay conflict-free."""
        o = self.src_order
        return agg.gather_scale_reduce(
            M, self.dst[o], None if scale is None else scale[o], self.src[o], self.n_nodes
        )
