"""Parameter server (§3.3): distributed gradient ≡ local gradient
(the data-independence claim), worker-count invariance, convergence."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.graphfeature import SubgraphRecord, store_graph_features, load_graph_features
from repro.core.graphflat import build_graph_features
from repro.core.ps import _partition_gradients, distributed_gradient, train_parameter_server
from repro.core.trainer import TrainConfig
from repro.graphs.generators import uug_lite


@pytest.fixture(scope="module")
def gf_strings(spark, tmp_path_factory):
    ds = uug_lite(n=200, seed=61)
    nodes_df, edges_df = ds.to_spark(spark)
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")[:32]}))
    gf = build_graph_features(nodes_df, edges_df, targets, 2)
    path = str(tmp_path_factory.mktemp("ps") / "gf")
    store_graph_features(gf, path)
    return ds, load_graph_features(spark, path).cache()


def _cfg():
    return TrainConfig(kind="gcn", n_layers=2, hidden=6, n_out=1, task="binary",
                       lr=0.05, batch_size=8, seed=5)


def _local_reference(strings, cfg, d_in, params):
    out = list(_partition_gradients(iter(strings), cfg, d_in, params))
    assert len(out) == 1
    g, loss, n = out[0]
    return {k: v / n for k, v in g.items()}, loss / n


@pytest.mark.parametrize("n_workers", [1, 2, 4, 7])
def test_distributed_gradient_equals_local(spark, gf_strings, n_workers):
    """Σ over any partitioning of the records gives the same gradient —
    the property that lets AGL train on a plain PS with data parallel."""
    ds, gf = gf_strings
    cfg = _cfg()
    params = cfg.build_model(ds.feat_dim).get_params()
    strings = sorted(r["gf"] for r in gf.collect())
    ref_g, ref_loss = _local_reference(strings, cfg, ds.feat_dim, params)
    got_g, got_loss = distributed_gradient(gf, cfg, ds.feat_dim, params, n_workers)
    np.testing.assert_allclose(got_loss, ref_loss, rtol=1e-9)
    for k in ref_g:
        np.testing.assert_allclose(got_g[k], ref_g[k], rtol=1e-7, atol=1e-10, err_msg=k)


def test_ps_training_loss_decreases(spark, gf_strings):
    ds, gf = gf_strings
    res = train_parameter_server(gf, _cfg(), ds.feat_dim, epochs=12, n_workers=4)
    assert res.losses[-1] < res.losses[0] * 0.95
    assert all(np.isfinite(v).all() for v in res.params.values())


def test_ps_converges_same_regardless_of_workers(spark, gf_strings):
    """Figure-7 property: the trajectory is worker-count independent in
    the synchronous PS (exact gradients)."""
    ds, gf = gf_strings
    r1 = train_parameter_server(gf, _cfg(), ds.feat_dim, epochs=4, n_workers=1)
    r4 = train_parameter_server(gf, _cfg(), ds.feat_dim, epochs=4, n_workers=4)
    np.testing.assert_allclose(r1.losses, r4.losses, rtol=1e-7)
    for k in r1.params:
        np.testing.assert_allclose(r1.params[k], r4.params[k], rtol=1e-6, atol=1e-9)


def test_partition_gradients_empty_partition_yields_nothing():
    cfg = _cfg()
    assert list(_partition_gradients(iter([]), cfg, 4, {})) == []


def test_empty_frame_raises_clear_error(spark, gf_strings):
    """No records anywhere: both entry points name the cause instead of
    failing inside the reduction."""
    ds, gf = gf_strings
    empty = spark.createDataFrame([], gf.schema)
    cfg = _cfg()
    params = cfg.build_model(ds.feat_dim).get_params()
    with pytest.raises(ValueError, match="no GraphFeature records reached the workers"):
        distributed_gradient(empty, cfg, ds.feat_dim, params, 2)
    with pytest.raises(ValueError, match="no GraphFeature records reached the workers"):
        train_parameter_server(empty, cfg, ds.feat_dim, epochs=1, n_workers=2)
