"""Parameter-server training on Spark (§3.3, Figure 4).

Because GraphFlat made every training example self-contained (its
GraphFeature carries the whole K-hop neighborhood), workers are fully
data-parallel — the paper's central claim. The PS maps onto Spark as:

- **server** = the driver: holds the canonical parameters and the Adam
  state, applies updates.
- **workers** = partitions of the GraphFeature RDD: each round they
  receive the broadcast parameters, replay their partition through the
  same :class:`~repro.core.trainer.GraphTrainer` vectorize/forward/
  backward code, and emit summed gradients.
- **synchronisation** = one ``mapInArrow`` job per round, its
  per-partition (grad-sum, loss-sum, count) triples summed on the
  driver; one driver update per round (synchronous PS — the
  substitution for the paper's async PS is documented in DESIGN.md).

A test asserts the reduced distributed gradient is numerically equal to
the single-process gradient over the same records, which is the data-
independence property Figure 7 (convergence regardless of #workers)
rests on.
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass
from functools import reduce

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql.types import BinaryType, StructField, StructType

from ..nn.optim import Adam
from .trainer import GraphTrainer, TrainConfig


def _partition_gradients(gf_strings, cfg: TrainConfig, d_in: int, params):
    """Worker body: full gradient of this partition at ``params``.

    Rebuilds the trainer locally, accumulates grads over mini-batches
    of ``cfg.batch_size`` records through the same vectorize step as
    :class:`GraphTrainer`, and yields one (grads, loss·n, n) triple.
    """
    records = list(gf_strings)
    if not records:
        return
    trainer = GraphTrainer(cfg, d_in)
    model = trainer.model
    model.set_params(params)
    grads: dict[str, np.ndarray] | None = None
    loss_sum, n = 0.0, 0
    for i in range(0, len(records), cfg.batch_size):
        batch = records[i : i + cfg.batch_size]
        bg, adj = trainer.vectorize(batch)
        model.zero_grad()
        loss, _ = model.loss_and_grad(bg.X, adj, bg.target_idx, trainer.labels(bg))
        # per-record gradient sum: batch loss is a mean over the batch
        bgrads = {k: v * len(batch) for k, v in model.get_grads().items()}
        grads = bgrads if grads is None else {k: grads[k] + bgrads[k] for k in grads}
        loss_sum += loss * len(batch)
        n += len(batch)
    yield (grads, loss_sum, n)


def _merge(a, b):
    ga, la, na = a
    gb, lb, nb = b
    return ({k: ga[k] + gb[k] for k in ga}, la + lb, na + nb)


_TRIPLE_SCHEMA = StructType([StructField("triple", BinaryType())])


@dataclass
class PSResult:
    params: dict
    losses: list[float]


def distributed_gradient(
    gf: DataFrame, cfg: TrainConfig, d_in: int, params: dict, n_workers: int
) -> tuple[dict, float]:
    """One PS round: broadcast → worker grads → sum on the driver.
    Returns the *mean* gradient over all records and the mean loss.

    The repartition stays in the JVM and the workers read their records
    as Arrow batches, so no row is pickled or reshuffled through Python.
    """
    sc = gf.sparkSession.sparkContext
    bc = sc.broadcast(params)

    def worker(batches):
        records = (buf for b in batches for buf in b.column("gf").to_pylist())
        for triple in _partition_gradients(records, cfg, d_in, bc.value):
            yield pa.RecordBatch.from_pylist([{"triple": pickle.dumps(triple)}])

    try:
        rows = gf.select("gf").repartition(n_workers).mapInArrow(worker, _TRIPLE_SCHEMA).collect()
    finally:
        bc.unpersist()
    if not rows:
        raise ValueError("distributed_gradient: no GraphFeature records reached the workers")
    grads, loss_sum, n = reduce(_merge, (pickle.loads(r["triple"]) for r in rows))
    return {k: v / n for k, v in grads.items()}, loss_sum / n


def train_parameter_server(
    gf: DataFrame,
    cfg: TrainConfig,
    d_in: int,
    *,
    epochs: int = 10,
    n_workers: int = 4,
) -> PSResult:
    """Synchronous PS training: one global Adam step per epoch, computed
    from the reduced full-batch gradient. ``gf`` is the (root, gf-string)
    frame the Storing phase produced."""
    # Cache the caller's frame once and repartition it in the JVM on
    # every round: persisting the repartitioned frame per call (memory
    # or DISK_ONLY) or re-reading the parquet each round made the Spark
    # JVM's RSS grow call after call; this stays flat.
    gf = gf.cache()
    model = cfg.build_model(d_in)  # driver-side canonical params
    opt = Adam(lr=cfg.lr)
    params = model.get_params()
    losses = []
    for _ in range(epochs):
        mean_grads, mean_loss = distributed_gradient(gf, cfg, d_in, params, n_workers)
        opt.step(params, mean_grads)
        losses.append(mean_loss)
    model.set_params(params)
    return PSResult(params=params, losses=losses)
