"""The benchmark's closed-loop workloads.

Each workload is one client: a pass runs its timed operations back to
back, and the next pass starts when the last one ends. A workload
builds its inputs from the seed alone; the ``repro`` code receives only
the generated tables. After every operation the workload checks the
output, and a failed check marks the operation failed.

- ``uug_infer``: the Table-5 pipeline on a hub-heavy uug_lite graph.
  Phases ``flat`` (GraphFlat over all nodes + store), ``original``
  (per-GraphFeature forward) and ``graphinfer``.
- ``ppi_train_ps``: ``GraphTrainer`` epochs from the stored ppi_lite
  GraphFeatures, GCN and GAT with the full AGL strategy set, then
  ``train_parameter_server`` runs on the same features.

Library calls go through their module (``graphflat.build_graph_features``)
so the traced run's wrappers see them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from repro.core import graphfeature, graphflat, infer, ps
from repro.core.graphfeature import SubgraphRecord
from repro.core.sampling import sample_in_edges
from repro.experiments import Table4Setup, make_table4_trainer
from repro.graphs.generators import ppi_lite, uug_lite
from repro.nn.models import GNNModel

K = 2
MAX_DEGREE = 8
#: largest |Original − GraphInfer| score gap the equivalence check accepts
SCORE_TOL = 1e-9


@dataclass
class Op:
    """One timed operation and the outcome of its output check."""

    name: str  # phase, or phase.model
    seconds: float
    items: int
    ok: bool = True

    @property
    def phase(self) -> str:
        return self.name.split(".")[0]


class Workload:
    """Shared shape: ``setup`` (repeatable), ``warmup``, ``run_pass``,
    ``finish`` (end-of-run checks), ``check_values``."""

    name = ""
    #: set-ups per run; setup_s takes their median
    SETUP_REPS = 3
    #: the named end-to-end metric for each phase: phase -> (name, unit)
    phase_metrics: dict[str, tuple[str, str]] = {}

    def __init__(self, spark, workdir: str, seed: int, tiny: bool):
        self.spark, self.workdir, self.seed, self.tiny = spark, workdir, seed, tiny

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self, tracer) -> None:
        """Run once untimed, so JVM code generation and Python worker
        start-up are paid before the clock starts."""
        self.run_pass(tracer)

    def run_pass(self, tracer) -> list[Op]:
        raise NotImplementedError

    def finish(self, ops: list[Op]) -> None:
        """End-of-run checks that span operations."""

    def check_values(self) -> dict[str, float]:
        return {}


# ------------------------------------------------------------------ uug_infer
def _scores(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(ids, scores[n, d]) of a stored score table, sorted by id."""
    t = pq.read_table(path, columns=["id", "score"])
    ids = t.column("id").to_numpy()
    flat = t.column("score").combine_chunks().flatten().to_numpy()
    scores = flat.reshape(ids.size, -1) if ids.size else flat.reshape(0, 1)
    order = np.argsort(ids, kind="stable")
    return ids[order], scores[order]


def perturb_features(gf_strings, cutoff: int):
    """Add 1.0 to every feature of the GraphFeatures whose root is below
    ``cutoff``. Used by the tests to prove the equivalence check fires."""

    def fn(batches):
        for pdf in batches:
            out = []
            for root, buf in zip(pdf["root"], pdf["gf"]):
                if root < cutoff:
                    rec = SubgraphRecord.from_bytes(buf)
                    rec.feats = rec.feats + 1.0
                    buf = rec.to_bytes()
                out.append(buf)
            yield pd.DataFrame({"root": pdf["root"], "gf": out})

    return gf_strings.mapInPandas(fn, schema=gf_strings.schema)


class UugInfer(Workload):
    """A pass: ``flat`` (GraphFlat over every node + store), ``original``
    (Original inference over the stored GraphFeatures) and ``graphinfer``,
    a 2-layer GAT with 8-dim embeddings, ``max_degree`` 8, as in Table 5.
    Spark's fixed costs make a pass take about 9 s at 3000 nodes on 4
    cores; larger graphs would not leave three passes in a one-minute run."""

    name = "uug_infer"
    phase_metrics = {
        "flat": ("flat_targets_per_s", "GraphFeatures/s"),
        "original": ("original_nodes_per_s", "nodes/s"),
        "graphinfer": ("infer_nodes_per_s", "nodes/s"),
    }
    N_NODES = 3000

    def __init__(self, spark, workdir, seed, tiny, perturb: float = 0.0):
        super().__init__(spark, workdir, seed, tiny)
        self.n = 300 if tiny else self.N_NODES
        self.perturb = perturb
        self.nodes_df = self.edges_df = None
        self.max_gap = 0.0

    def setup(self) -> None:
        ds = uug_lite(n=self.n, avg_in_degree=10.0, seed=self.seed)
        for df in (self.nodes_df, self.edges_df):
            if df is not None:
                df.unpersist()
        nodes_df, edges_df = ds.to_spark(self.spark)
        self.nodes_df, self.edges_df = nodes_df.cache(), edges_df.cache()
        self.nodes_df.count(), self.edges_df.count()
        self.ids = np.sort(ds.nodes["id"].to_numpy())
        self.slices = GNNModel("gat", ds.feat_dim, 8, 1, K, "binary", seed=self.seed).to_slices()

    def _covers(self, ids: np.ndarray) -> bool:
        """Every node exactly once (``ids`` sorted)."""
        return np.array_equal(ids, self.ids)

    def run_pass(self, tracer) -> list[Op]:
        gf_path, orig_path, gi_path = (f"{self.workdir}/{p}" for p in ("gf", "original", "graphinfer"))
        with tracer.phase("flat") as flat:
            gf = graphflat.build_graph_features(
                self.nodes_df, self.edges_df, self.nodes_df.select("id"), K,
                max_degree=MAX_DEGREE, seed=self.seed,
            )
            graphfeature.store_graph_features(gf, gf_path)
        roots = np.sort(pq.read_table(gf_path, columns=["root"]).column("root").to_numpy())

        with tracer.phase("original") as orig:
            gf_strings = graphfeature.load_graph_features(self.spark, gf_path)
            if self.perturb:
                gf_strings = perturb_features(gf_strings, int(self.ids[int(self.perturb * self.n)]))
            infer.run_original_inference(gf_strings, self.slices, n_layers=K).write.mode(
                "overwrite").parquet(orig_path)
        o_ids, o_scores = _scores(orig_path)

        with tracer.phase("graphinfer") as gi:
            infer.run_graph_infer(
                self.nodes_df, self.edges_df, self.slices, max_degree=MAX_DEGREE, seed=self.seed
            ).write.mode("overwrite").parquet(gi_path)
        g_ids, g_scores = _scores(gi_path)

        both = self._covers(o_ids) and self._covers(g_ids)
        gap = float(np.max(np.abs(o_scores - g_scores))) if both else math.inf
        self.max_gap = max(self.max_gap, gap)
        return [
            Op("flat", flat["seconds"], self.n, ok=self._covers(roots)),
            Op("original", orig["seconds"], self.n, ok=self._covers(o_ids)),
            Op("graphinfer", gi["seconds"], self.n, ok=self._covers(g_ids) and gap <= SCORE_TOL),
        ]

    def check_values(self) -> dict[str, float]:
        return {"max_score_gap": self.max_gap}

    def cost_report(self) -> dict:
        """Compute-cost counters of Original vs GraphInfer (traced run)."""
        sampled = sample_in_edges(self.edges_df, MAX_DEGREE, seed=self.seed).cache()
        try:
            report = infer.inference_cost_report(
                sampled, self.nodes_df.select("id"), K, self.n, sampled.count()
            )
            # the inbox of a node is its sampled in-edges plus the GAT self-loop
            report["max_inbox"] = int(
                sampled.groupBy("dst").count().agg({"count": "max"}).first()[0]
            ) + 1
        finally:
            sampled.unpersist()
        return report


# ------------------------------------------------------------------ ppi_train_ps
class PpiTrainPS(Workload):
    """Set-up: GraphFlat K=2 over the train targets of a ppi_lite graph,
    stored to parquet. A pass: one ``GraphTrainer`` epoch per model
    (phase ``train``), then one ``train_parameter_server`` call of
    ``ROUNDS`` rounds per model (phase ``ps``), on the same features."""

    name = "ppi_train_ps"
    phase_metrics = {
        "train": ("train_samples_per_s", "targets/s"),
        "ps": ("ps_samples_per_s", "records/s"),
    }
    KINDS = ("gcn", "gat")
    N_TARGETS = 2048
    #: each set-up runs GraphFlat (7 s warm, 18 s cold on 4 cores), so a
    #: third would add 7 s to every run
    SETUP_REPS = 2
    #: rounds of one ``train_parameter_server`` call (one timed operation)
    ROUNDS = 2

    def __init__(self, spark, workdir, seed, tiny, n_workers: int = 1):
        super().__init__(spark, workdir, seed, tiny)
        self.n_workers = n_workers

    def setup(self) -> None:
        # experiments.prepare_table4 would fix the dataset seed, so the
        # same steps are spelled out here with the run's seed
        if self.tiny:
            ds = ppi_lite(n_graphs=3, nodes_per_graph=120, n_train_graphs=1, seed=self.seed)
            n_targets = 64
        else:
            ds = ppi_lite(n_graphs=6, nodes_per_graph=1000, avg_degree=8.0, seed=self.seed)
            n_targets = self.N_TARGETS
        nodes_df, edges_df = ds.to_spark(self.spark)
        rng = np.random.default_rng(self.seed)
        targets = np.sort(rng.permutation(ds.split_ids("train"))[:n_targets])
        targets_df = self.spark.createDataFrame(pd.DataFrame({"id": targets}))
        path = f"{self.workdir}/gf_k{K}"
        gf = graphflat.build_graph_features(
            nodes_df, edges_df, targets_df, K, max_degree=MAX_DEGREE, seed=self.seed
        )
        graphfeature.store_graph_features(gf, path)
        stored = pq.read_table(path, columns=["root"]).num_rows
        if stored != targets.size:
            raise RuntimeError(f"stored {stored} GraphFeatures for {targets.size} targets")
        self.table4 = Table4Setup(ds=ds, gf_paths={K: path}, n_targets=int(targets.size))
        self.gf = graphfeature.load_graph_features(self.spark, path)
        # the Table-4 "agl_both" configuration: pipeline + pruning + partition
        trainers = {kind: make_table4_trainer(self.table4, "agl_both", kind, K) for kind in self.KINDS}
        self.epoch_fns = {kind: fn for kind, (_, fn) in trainers.items()}
        self.cfgs = {kind: t.cfg for kind, (t, _) in trainers.items()}
        self.epoch = 0
        self.train_losses: dict[str, list[float]] = {k: [] for k in self.KINDS}
        self.ps_losses: dict[str, list[float]] = {}

    def warmup(self, tracer) -> None:
        """One epoch and one PS round per model, so the Python workers
        import the PS code and the thread pools start before timing."""
        for kind, epoch_fn in self.epoch_fns.items():
            epoch_fn(self.epoch)
            ps.train_parameter_server(
                self.gf, self.cfgs[kind], self.table4.ds.feat_dim, epochs=1, n_workers=self.n_workers
            )
        self.epoch += 1

    def run_pass(self, tracer) -> list[Op]:
        ops = []
        n = self.table4.n_targets
        for kind, epoch_fn in self.epoch_fns.items():
            with tracer.phase("train") as ph:
                loss = epoch_fn(self.epoch)
            self.train_losses[kind].append(loss)
            ops.append(Op(f"train.{kind}", ph["seconds"], n, ok=math.isfinite(loss)))
        self.epoch += 1
        for kind, cfg in self.cfgs.items():
            with tracer.phase("ps") as ph:
                res = ps.train_parameter_server(
                    self.gf, cfg, self.table4.ds.feat_dim, epochs=self.ROUNDS, n_workers=self.n_workers
                )
            # each call starts from fresh parameters, so it checks itself
            self.ps_losses[kind] = res.losses
            ok = all(math.isfinite(x) for x in res.losses) and res.losses[-1] < res.losses[0]
            ops.append(Op(f"ps.{kind}", ph["seconds"], n * self.ROUNDS, ok=ok))
        return ops

    def finish(self, ops: list[Op]) -> None:
        """The trainers keep their state across passes: the last epoch
        loss of each model must be below its first."""
        for kind, losses in self.train_losses.items():
            mine = [op for op in ops if op.name == f"train.{kind}"]
            if mine and not (len(losses) >= 2 and losses[-1] < losses[0]):
                mine[-1].ok = False

    def check_values(self) -> dict[str, float]:
        out = {f"final_loss.train.{k}": v[-1] for k, v in self.train_losses.items() if v}
        out.update({f"final_loss.ps.{k}": v[-1] for k, v in self.ps_losses.items()})
        return out


WORKLOADS = {w.name: w for w in (UugInfer, PpiTrainPS)}
