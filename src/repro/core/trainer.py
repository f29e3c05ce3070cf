"""GraphTrainer — training over GraphFeatures (§3.3).

Two trainers share the same numpy models:

- :class:`GraphTrainer` — the AGL path: streams GraphFeature records
  (from memory or from the parquet the Storing phase wrote — AGL is
  disk-based, unlike the in-memory comparators), vectorizes batches,
  and runs forward/backward with the three optimisation strategies
  toggleable:

  * ``pipeline``  — a prefetch thread reads + vectorizes batch i+1
    while the model computes on batch i (§3.3.2 "training pipeline").
  * ``pruning``   — per-layer pruned adjacencies A_B^(k) (Eq. 3).
  * ``partition`` — the fused destination-partitioned threaded
    aggregation kernel instead of buffered ``np.add.at``.

- :func:`WholeGraphTrainer` — the in-memory comparator stand-ins:
  ``dgl_sim`` trains full-batch on the whole in-memory graph with the
  fused partitioned kernel (DGL's fused SpMM design); ``pyg_sim`` uses
  the unfused buffered scatter *and* re-coalesces (re-sorts) the edge
  list every forward pass, as PyG 1.3's generic message passing did.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..nn.aggregators import Aggregator
from ..nn.edges import Edges
from ..nn.models import NEEDS_SELF_LOOPS, GNNModel
from ..nn.optim import Adam
from .graphfeature import SubgraphRecord
from .vectorize import BatchGraph, merge_batch


@dataclass
class TrainConfig:
    """Model + strategy knobs for one training run."""

    kind: str = "gcn"  # gcn | sage | gat
    n_layers: int = 2
    hidden: int = 16
    n_out: int = 2
    task: str = "multiclass"
    n_heads: int = 1
    lr: float = 0.01
    batch_size: int = 64
    seed: int = 0
    # AGL optimisation strategies (§3.3.2)
    pipeline: bool = True
    pruning: bool = False
    partition: bool = False

    def build_model(self, d_in: int) -> GNNModel:
        m = GNNModel(
            self.kind, d_in, self.hidden, self.n_out, self.n_layers,
            self.task, n_heads=self.n_heads, seed=self.seed,
        )
        m.set_aggregator(self.aggregator())
        return m

    def aggregator(self) -> Aggregator:
        return Aggregator("partitioned" if self.partition else "add_at")


# ---------------------------------------------------------------- sources
class MemorySource:
    """Batches from decoded records held in memory (tests, Table 3)."""

    def __init__(self, records: list[SubgraphRecord], batch_size: int, shuffle: bool = True):
        self.records, self.batch_size, self.shuffle = records, batch_size, shuffle

    def batches(self, epoch: int) -> list[list[SubgraphRecord]]:
        order = np.arange(len(self.records))
        if self.shuffle:
            np.random.default_rng(epoch).shuffle(order)
        recs = [self.records[i] for i in order]
        return [recs[i : i + self.batch_size] for i in range(0, len(recs), self.batch_size)]


class ParquetSource:
    """Batches streamed from the GraphFlat parquet each epoch — the
    paper's disk-based data path ("data will be loaded from disks
    rather than from memory").

    Yields *encoded* records (bytes); decoding happens inside
    :meth:`GraphTrainer.vectorize`, i.e. on the pipeline's prefetch
    thread, so reading + deserialisation + vectorization together form
    the paper's overlapped "preprocessing stage"."""

    def __init__(self, path: str, batch_size: int):
        import pyarrow.dataset as pads  # local import: optional at module load

        self._pads = pads
        self.path, self.batch_size = path, batch_size

    def batches(self, epoch: int):
        ds = self._pads.dataset(self.path, format="parquet")
        for rb in ds.to_batches(batch_size=self.batch_size, columns=["gf"]):
            if rb.num_rows == 0:
                continue
            yield rb.column("gf").to_pylist()


# ---------------------------------------------------------------- trainer
class GraphTrainer:
    """AGL's trainer: vectorize GraphFeature batches, run the model.

    One instance owns the model and Adam state; workers in the PS
    variant (:mod:`repro.core.ps`) build one per partition and reuse its
    :meth:`vectorize` and :meth:`labels`.
    """

    def __init__(self, cfg: TrainConfig, d_in: int):
        self.cfg = cfg
        self.model = cfg.build_model(d_in)
        self.opt = Adam(lr=cfg.lr)
        self.self_loops = NEEDS_SELF_LOOPS[cfg.kind]

    def vectorize(self, records: list) -> tuple[BatchGraph, list[Edges]]:
        """Subgraph-vectorization phase: records → (A_B, X_B, …) and the
        per-layer (pruned) adjacency list — plus decoding when the
        source hands over encoded bytes. All of it runs off the
        model-computation thread (§3.3.2)."""
        records = [
            SubgraphRecord.from_bytes(r) if isinstance(r, (bytes, bytearray)) else r
            for r in records
        ]
        bg = merge_batch(records)
        adj = bg.adj_list(self.cfg.n_layers, self_loops=self.self_loops, pruning=self.cfg.pruning)
        return bg, adj

    def _vectorized_batches(self, source, epoch: int):
        it = iter(source.batches(epoch))
        if not self.cfg.pipeline:
            for recs in it:
                yield self.vectorize(recs)
            return
        # training pipeline: preprocessing (read+vectorize) of batch i+1
        # overlaps the model computation of batch i
        with ThreadPoolExecutor(max_workers=1) as pool:
            fut = None
            for recs in it:
                nxt = pool.submit(self.vectorize, recs)
                if fut is not None:
                    yield fut.result()
                fut = nxt
            if fut is not None:
                yield fut.result()

    def train_epoch(self, source, epoch: int = 0) -> float:
        losses, counts = [], []
        for bg, adj in self._vectorized_batches(source, epoch):
            self.model.zero_grad()
            loss, _ = self.model.loss_and_grad(bg.X, adj, bg.target_idx, self.labels(bg))
            self.opt.step(self.model.get_params(), self.model.get_grads())
            losses.append(loss)
            counts.append(len(bg.target_idx))
        return float(np.average(losses, weights=counts))

    def labels(self, bg: BatchGraph) -> np.ndarray:
        """Batch labels in the form the task's loss expects."""
        if self.cfg.task == "multiclass":
            return bg.labels[:, 0].astype(np.int64)
        return bg.labels

    def predict(self, records: list[SubgraphRecord]) -> np.ndarray:
        bg, adj = self.vectorize(records)
        return self.model.forward(bg.X, adj, bg.target_idx)

    def evaluate(self, records: list[SubgraphRecord]) -> float:
        bg, adj = self.vectorize(records)
        logits = self.model.forward(bg.X, adj, bg.target_idx)
        return self.model.metric_fn(logits, self.labels(bg))


class WholeGraphTrainer:
    """In-memory comparator stand-ins (DGL / PyG, see DESIGN.md §6).

    Trains full-batch on one whole-graph :class:`BatchGraph`; the
    ``system`` flag picks the kernel behaviour:

    - ``dgl_sim``: fused destination-partitioned threaded kernel.
    - ``pyg_sim``: buffered ``np.add.at`` kernel + re-coalescing the
      edge list (a fresh lexsort) before every forward pass.
    """

    def __init__(self, cfg: TrainConfig, bg: BatchGraph, system: str = "dgl_sim"):
        self.cfg, self.bg, self.system = cfg, bg, system
        self.model = cfg.build_model(bg.X.shape[1])
        if system not in ("dgl_sim", "pyg_sim"):
            raise ValueError(system)
        self.model.set_aggregator(Aggregator("partitioned" if system == "dgl_sim" else "add_at"))
        self.opt = Adam(lr=cfg.lr)
        self.self_loops = NEEDS_SELF_LOOPS[cfg.kind]
        self._base = bg.edges_raw().with_self_loops() if self.self_loops else bg.edges_raw()

    def _adj(self) -> list[Edges]:
        e = self._base
        if self.system == "pyg_sim":
            # re-coalesce per forward, as PyG's generic scatter prep did
            e = Edges.from_arrays(e.src, e.dst, e.w, e.n_nodes)
        return [e] * self.cfg.n_layers

    labels = GraphTrainer.labels  # reads only self.cfg, which both trainers hold

    def train_epoch(self, epoch: int = 0) -> float:
        self.model.zero_grad()
        loss, _ = self.model.loss_and_grad(
            self.bg.X, self._adj(), self.bg.target_idx, self.labels(self.bg)
        )
        self.opt.step(self.model.get_params(), self.model.get_grads())
        return loss

    def evaluate(self, target_idx: np.ndarray, labels: np.ndarray) -> float:
        logits = self.model.forward(self.bg.X, self._adj(), target_idx)
        return self.model.metric_fn(logits, labels)
