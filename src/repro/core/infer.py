"""GraphInfer — distributed slice-wise GNN inference (§3.4, Figure 5).

A trained K-layer model is split into K+1 slices (hierarchical model
segmentation). Inference is K+1 MapReduce rounds over the *whole*
graph, expressed as DataFrame dataflow:

- Map (once): the node table becomes the layer-0 state (id, h = feat);
  the edge table provides the out-edge routing.
- Reduce round k ≤ K: ``edges ⋈ state`` ships each node's current
  embedding along its out-edges (propagate); ``groupBy(dst)`` collects
  every node's in-edge messages (merge, shuffle key = node id); a
  pandas-batched worker loads slice k and computes the layer-k
  embedding. Each embedding is computed exactly once — the property
  that makes GraphInfer beat per-GraphFeature inference.
- Round K+1: the prediction slice maps final embeddings to scores.

:func:`run_original_inference` is the paper's "Original" baseline
(Table 5): full K-layer forward over every stored GraphFeature, which
recomputes embeddings wherever neighborhoods overlap.
:func:`inference_cost_report` quantifies exactly that repetition.

Sampling consistency: pass the *same* ``max_degree``/``strategy``/
``seed`` used by GraphFlat and the identical deterministic sampled edge
set is used here (§3.4 last paragraph).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..nn.edges import Edges
from ..nn.models import layer_from_slice, slice_needs_self_loops
from .graphfeature import SubgraphRecord
from .graphflat import khop_members
from .sampling import sample_in_edges
from .vectorize import merge_batch

_STATE_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType()),
        T.StructField("h", T.ArrayType(T.DoubleType())),
    ]
)


def _apply_slice_fn(spec: dict):
    """Pandas-batched reducer for one GNN slice.

    Input rows: (dst, h_self, inbox=[(src, w, h_src), ...]). Builds a
    local graph per Arrow batch — local ids [0, b) are the destination
    nodes, senders occupy [b, b+m) — and reuses the exact training
    layer forward, so inference is numerically identical to training.
    """

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        layer = layer_from_slice(spec)
        for pdf in batches:
            b = len(pdf)
            if b == 0:
                continue
            h_self = np.array([np.asarray(h, dtype=np.float64) for h in pdf["h_self"]])
            inboxes = pdf["inbox"]
            srcs, dsts, ws, h_srcs = [], [], [], []
            nxt = b
            for i, inbox in enumerate(inboxes):
                if inbox is None:
                    continue
                for entry in inbox:
                    srcs.append(nxt)
                    dsts.append(i)
                    ws.append(entry["w"])
                    h_srcs.append(np.asarray(entry["h_src"], dtype=np.float64))
                    nxt += 1
            X = np.concatenate([h_self, np.array(h_srcs).reshape(len(h_srcs), -1)]) if h_srcs else h_self
            edges = Edges.from_arrays(
                np.array(srcs, dtype=np.int64),
                np.array(dsts, dtype=np.int64),
                np.array(ws, dtype=np.float64),
                X.shape[0],
            )
            H = layer.forward(X, edges)[:b]
            yield pd.DataFrame({"id": pdf["dst"], "h": list(H)})

    return fn


def _with_self_edges(edges: DataFrame, nodes: DataFrame) -> DataFrame:
    loops = nodes.select(
        F.col("id").alias("src"), F.col("id").alias("dst"), F.lit(1.0).alias("w")
    )
    return edges.select("src", "dst", "w").unionByName(loops)


def run_graph_infer(
    nodes: DataFrame,
    edges: DataFrame,
    slices: list[dict],
    *,
    max_degree: int | None = None,
    strategy: str = "uniform",
    seed: int = 0,
) -> DataFrame:
    """K+1-round MapReduce inference over the whole graph.

    Returns (id, score: array<double>) for **every** node. ``slices``
    comes from :meth:`GNNModel.to_slices`.
    """
    if max_degree is not None:
        edges = sample_in_edges(edges, max_degree, strategy=strategy, seed=seed)
    edges = edges.select("src", "dst", "w").cache()
    state = nodes.select("id", F.col("feat").alias("h"))
    gnn_slices, pred_slice = slices[:-1], slices[-1]
    for spec in gnn_slices:
        e_k = _with_self_edges(edges, nodes) if slice_needs_self_loops(spec) else edges
        msgs = e_k.join(
            state.select(F.col("id").alias("src"), F.col("h").alias("h_src")), "src"
        )
        inbox = msgs.groupBy("dst").agg(
            F.collect_list(F.struct("src", "w", "h_src")).alias("inbox")
        )
        staged = state.select(
            F.col("id").alias("dst"), F.col("h").alias("h_self")
        ).join(inbox, "dst", "left")
        state = staged.mapInPandas(_apply_slice_fn(spec), schema=_STATE_SCHEMA)

    def pred_fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        head = layer_from_slice(pred_slice)
        for pdf in batches:
            if len(pdf) == 0:
                continue
            H = np.array([np.asarray(h, dtype=np.float64) for h in pdf["h"]])
            yield pd.DataFrame({"id": pdf["id"], "score": list(head.forward(H))})

    score_schema = T.StructType(
        [
            T.StructField("id", T.LongType()),
            T.StructField("score", T.ArrayType(T.DoubleType())),
        ]
    )
    return state.mapInPandas(pred_fn, schema=score_schema)


def run_original_inference(
    gf_strings: DataFrame, slices: list[dict], *, n_layers: int, batch_size: int = 1
) -> DataFrame:
    """The pre-GraphInfer baseline: independent full K-layer forward
    over each target's GraphFeature (overlapping neighborhoods are
    recomputed every time they appear).

    ``batch_size=1`` is the strict per-GraphFeature semantics of the
    paper's "Original" module — every subgraph is inferred in
    isolation, so the repetition the paper criticises is fully paid
    (and matches :func:`inference_cost_report`'s Σ|V_v^k| proxy).
    Larger batches merge subgraphs first (training-style batching) and
    hence recover some reuse; results are identical either way."""
    # the GNN slices of one model share a kind, hence a self-loop need
    self_loops = slice_needs_self_loops(slices[0])

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        layers = [layer_from_slice(s) for s in slices[:-1]]
        head = layer_from_slice(slices[-1])
        buf: list[SubgraphRecord] = []

        def flush():
            bg = merge_batch(buf)
            H = bg.X
            adj = bg.adj_list(len(layers), self_loops=self_loops, pruning=False)
            for lyr, edges in zip(layers, adj):
                H = lyr.forward(H, edges)
            scores = head.forward(H[bg.target_idx])
            out = pd.DataFrame(
                {"id": bg.node_ids[bg.target_idx], "score": list(scores)}
            )
            buf.clear()
            return out

        for pdf in batches:
            for s in pdf["gf"]:
                buf.append(SubgraphRecord.from_bytes(s))
                if len(buf) >= batch_size:
                    yield flush()
        if buf:
            yield flush()

    score_schema = T.StructType(
        [
            T.StructField("id", T.LongType()),
            T.StructField("score", T.ArrayType(T.DoubleType())),
        ]
    )
    return gf_strings.mapInPandas(fn, schema=score_schema)


def inference_cost_report(
    edges: DataFrame, targets: DataFrame, k: int, n_nodes: int, n_edges: int
) -> dict:
    """Deterministic compute-cost proxies for Table 5.

    "Original" touches Σ_targets |V_v^k| node states and Σ_targets
    |E_v^k| edges (every overlap recomputed); GraphInfer touches
    K·|V| node states and K·|E| edges — each exactly once.
    """
    members = khop_members(edges, targets, k).cache()
    orig_nodes = members.count()
    inner = members.filter(F.col("dist") <= k - 1).select("root", "id")
    orig_edges = inner.join(edges, inner.id == edges.dst).count()
    members.unpersist()
    return {
        "original_node_computations": orig_nodes,
        "original_edge_traversals": orig_edges,
        "graphinfer_node_computations": k * n_nodes,
        "graphinfer_edge_traversals": k * n_edges,
    }
