"""GraphFeature codec + storage: binary round trip, parquet round
trip, decoded record integrity."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.graphfeature import (
    SubgraphRecord,
    collect_records,
    load_graph_features,
    store_graph_features,
)
from repro.core.graphflat import build_graph_features
from repro.graphs.generators import uug_lite


@pytest.fixture(scope="module")
def gf(spark):
    ds = uug_lite(n=120, seed=31)
    nodes_df, edges_df = ds.to_spark(spark)
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")[:12]}))
    return ds, build_graph_features(nodes_df, edges_df, targets, 2)


def _sample_record():
    return SubgraphRecord(
        root=7,
        label=np.array([1.0]),
        node_ids=np.array([7, 3, 9]),
        dists=np.array([0, 1, 2]),
        feats=np.array([[0.5, 1.5], [2.5, 3.5], [4.5, 5.5]]),
        e_src=np.array([3, 9]),
        e_dst=np.array([7, 3]),
        e_w=np.array([1.0, 0.25]),
    )


def test_bytes_roundtrip():
    r = _sample_record()
    r2 = SubgraphRecord.from_bytes(r.to_bytes())
    np.testing.assert_array_equal(r2.node_ids, r.node_ids)
    np.testing.assert_array_equal(r2.dists, r.dists)
    np.testing.assert_allclose(r2.feats, r.feats)
    np.testing.assert_array_equal(r2.e_src, r.e_src)
    np.testing.assert_allclose(r2.e_w, r.e_w)
    np.testing.assert_allclose(r2.label, r.label)
    assert r2.root == r.root


def test_bytes_roundtrip_empty_edges():
    r = SubgraphRecord(
        root=3,
        label=np.array([]),
        node_ids=np.array([3]),
        dists=np.array([0]),
        feats=np.array([[2.0, 4.0]]),
        e_src=np.empty(0, np.int64),
        e_dst=np.empty(0, np.int64),
        e_w=np.empty(0),
    )
    r2 = SubgraphRecord.from_bytes(r.to_bytes())
    assert r2.n_edges == 0 and r2.label.size == 0
    np.testing.assert_allclose(r2.feats, r.feats)


def test_collect_records_decodes_rows(gf):
    ds, gf_df = gf
    recs = collect_records(gf_df)
    assert len(recs) == 12
    X = ds.feat_matrix()
    for r in recs:
        assert r.node_ids.shape == r.dists.shape
        assert r.feats.shape == (r.n_nodes, ds.feat_dim)
        i = int(np.flatnonzero(r.node_ids == r.root)[0])
        assert r.dists[i] == 0
        np.testing.assert_allclose(r.feats[i], X[r.root])


def test_store_load_parquet_roundtrip(spark, gf, tmp_path):
    _, gf_df = gf
    path = str(tmp_path / "gfs")
    store_graph_features(gf_df, path)
    back = load_graph_features(spark, path)
    assert back.count() == 12
    rows = back.collect()
    direct = {r.root: r for r in collect_records(gf_df)}
    for row in rows:
        r = SubgraphRecord.from_bytes(row["gf"])
        assert row["root"] == r.root
        d = direct[r.root]
        np.testing.assert_array_equal(np.sort(r.node_ids), np.sort(d.node_ids))
        assert r.n_edges == d.n_edges
        np.testing.assert_allclose(np.sort(r.e_w), np.sort(d.e_w))
