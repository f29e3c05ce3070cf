"""GNN layers with hand-written backprop: GCN, GraphSAGE (mean), GAT.

Each layer follows Eq. 1 of the paper: the new embedding of node ``v``
is a parametric function of ``{v} ∪ N_v^+`` (self + in-edge neighbors)
and in-edge features/weights. All aggregation goes through a pluggable
:class:`~repro.nn.aggregators.Aggregator` so the edge-partitioning
strategy (§3.3.2) applies uniformly to forward and backward scatters.

API: ``forward(X, edges) -> H`` caches activations; ``backward(dH) ->
dX`` accumulates parameter gradients in ``.grads``. Parameters and
gradients are flat ``{name: ndarray}`` dicts so the parameter server
can ship them as-is.
"""
from __future__ import annotations

import numpy as np

from .aggregators import Aggregator
from .edges import Edges


def _act(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "elu":
        return np.where(z > 0, z, np.expm1(z))
    if kind == "id":
        return z
    raise ValueError(kind)


def _dact(kind: str, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return (z > 0).astype(z.dtype)
    if kind == "elu":
        return np.where(z > 0, 1.0, out + 1.0)
    if kind == "id":
        return np.ones_like(z)
    raise ValueError(kind)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, (fan_in, fan_out))


class Layer:
    """Base: holds params/grads and the aggregation engine."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.agg = Aggregator(kind="add_at")
        self._cache: dict = {}

    def zero_grad(self) -> None:
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, X: np.ndarray, edges: Edges) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def backward(self, dH: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class GCNLayer(Layer):
    """H' = act( Â H W + b ) with Â = mean over {v} ∪ N_v^+.

    Expects ``edges`` *with* self-loops; edge weights are re-normalised
    per destination (weighted mean), matching Kipf-style propagation on
    a directed graph (in-degree normalisation).
    """

    def __init__(self, d_in: int, d_out: int, act: str = "relu", seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.params = {"W": _glorot(rng, d_in, d_out), "b": np.zeros(d_out)}
        self.act = act

    def forward(self, X: np.ndarray, edges: Edges) -> np.ndarray:
        deg = edges.in_degrees(weighted=True)
        wn = edges.w / np.maximum(deg[edges.dst], 1e-12)
        M = X @ self.params["W"]
        aggv = edges.aggregate(self.agg, M, wn)
        Z = aggv + self.params["b"]
        H = _act(self.act, Z)
        self._cache = {"X": X, "edges": edges, "wn": wn, "Z": Z, "H": H}
        return H

    def backward(self, dH: np.ndarray) -> np.ndarray:
        c = self._cache
        edges: Edges = c["edges"]
        dZ = dH * _dact(self.act, c["Z"], c["H"])
        self.grads["b"] += dZ.sum(axis=0)
        # dM[src] += wn * dZ[dst]
        dM = edges.aggregate_rev(self.agg, dZ, c["wn"])
        self.grads["W"] += c["X"].T @ dM
        return dM @ self.params["W"].T


class SAGELayer(Layer):
    """GraphSAGE-mean with the "add" combine the paper's systems use:
    H' = act( H W_self + mean_{u∈N_v^+}(H_u) W_nbr + b ).

    Expects ``edges`` *without* self-loops (self handled by W_self).
    """

    def __init__(self, d_in: int, d_out: int, act: str = "relu", seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.params = {
            "Wself": _glorot(rng, d_in, d_out),
            "Wnbr": _glorot(rng, d_in, d_out),
            "b": np.zeros(d_out),
        }
        self.act = act

    def forward(self, X: np.ndarray, edges: Edges) -> np.ndarray:
        deg = np.maximum(edges.in_degrees(), 1.0)
        mean_nbr = edges.aggregate(self.agg, X) / deg[:, None]
        Z = X @ self.params["Wself"] + mean_nbr @ self.params["Wnbr"] + self.params["b"]
        H = _act(self.act, Z)
        self._cache = {"X": X, "edges": edges, "deg": deg, "mean": mean_nbr, "Z": Z, "H": H}
        return H

    def backward(self, dH: np.ndarray) -> np.ndarray:
        c = self._cache
        edges: Edges = c["edges"]
        dZ = dH * _dact(self.act, c["Z"], c["H"])
        self.grads["b"] += dZ.sum(axis=0)
        self.grads["Wself"] += c["X"].T @ dZ
        self.grads["Wnbr"] += c["mean"].T @ dZ
        dmean = dZ @ self.params["Wnbr"].T / c["deg"][:, None]
        dX = dZ @ self.params["Wself"].T
        dX += edges.aggregate_rev(self.agg, dmean)
        return dX


class GATLayer(Layer):
    """Graph attention (Veličković et al.), ``n_heads`` concatenated heads.

    Per head: z = X W;  e_{ts} = LeakyReLU(a_src·z_s + a_dst·z_t) over
    in-edges s→t (self-loops included); α = per-destination softmax;
    out_t = Σ_s α z_s. Output dim is ``n_heads * d_out``.
    """

    LEAK = 0.2

    def __init__(self, d_in: int, d_out: int, n_heads: int = 1, act: str = "elu", seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.n_heads, self.d_out, self.act = n_heads, d_out, act
        for h in range(n_heads):
            self.params[f"W{h}"] = _glorot(rng, d_in, d_out)
            self.params[f"as{h}"] = _glorot(rng, d_out, 1)[:, 0]
            self.params[f"ad{h}"] = _glorot(rng, d_out, 1)[:, 0]
        self.params["b"] = np.zeros(n_heads * d_out)

    def forward(self, X: np.ndarray, edges: Edges) -> np.ndarray:
        outs, caches = [], []
        for h in range(self.n_heads):
            z = X @ self.params[f"W{h}"]
            ss = z @ self.params[f"as{h}"]  # per-node source score
            sd = z @ self.params[f"ad{h}"]  # per-node dest score
            pre = ss[edges.src] + sd[edges.dst]
            lre = np.where(pre > 0, pre, self.LEAK * pre)
            alpha = self.agg.segment_softmax(lre, edges.dst, edges.n_nodes)
            out = edges.aggregate(self.agg, z, alpha)
            outs.append(out)
            caches.append({"z": z, "pre": pre, "alpha": alpha})
        Z = np.concatenate(outs, axis=1) + self.params["b"]
        H = _act(self.act, Z)
        self._cache = {"X": X, "edges": edges, "heads": caches, "Z": Z, "H": H}
        return H

    def backward(self, dH: np.ndarray) -> np.ndarray:
        c = self._cache
        edges: Edges = c["edges"]
        dZ = dH * _dact(self.act, c["Z"], c["H"])
        self.grads["b"] += dZ.sum(axis=0)
        dX = np.zeros_like(c["X"])
        for h in range(self.n_heads):
            hc = c["heads"][h]
            dout = dZ[:, h * self.d_out : (h + 1) * self.d_out]
            z, alpha, pre = hc["z"], hc["alpha"], hc["pre"]
            # weighted-sum backward: dz[s] += α_e dout[t];  g_e = dout[t]·z_s
            dout_t = dout[edges.dst]
            z_s = z[edges.src]
            g = np.einsum("ed,ed->e", dout_t, z_s)
            dz = edges.aggregate_rev(self.agg, dout, alpha)
            # softmax backward within each destination segment
            seg_dot = edges.scatter_to_dst(self.agg, (alpha * g)[:, None])[:, 0]
            dlre = alpha * (g - seg_dot[edges.dst])
            dpre = dlre * np.where(pre > 0, 1.0, self.LEAK)
            # score backward: pre = (z W? no) = z_s·a_s + z_t·a_d
            z_t = z[edges.dst]
            self.grads[f"as{h}"] += dpre @ z_s
            self.grads[f"ad{h}"] += dpre @ z_t
            dz += edges.scatter_to_src(self.agg, dpre[:, None] * self.params[f"as{h}"][None, :])
            dz += edges.scatter_to_dst(self.agg, dpre[:, None] * self.params[f"ad{h}"][None, :])
            self.grads[f"W{h}"] += c["X"].T @ dz
            dX += dz @ self.params[f"W{h}"].T
        return dX


class DenseLayer(Layer):
    """Plain affine layer — the paper's "prediction model" slice K+1."""

    def __init__(self, d_in: int, d_out: int, act: str = "id", seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.params = {"W": _glorot(rng, d_in, d_out), "b": np.zeros(d_out)}
        self.act = act

    def forward(self, X: np.ndarray, edges: Edges | None = None) -> np.ndarray:
        Z = X @ self.params["W"] + self.params["b"]
        H = _act(self.act, Z)
        self._cache = {"X": X, "Z": Z, "H": H}
        return H

    def backward(self, dH: np.ndarray) -> np.ndarray:
        c = self._cache
        dZ = dH * _dact(self.act, c["Z"], c["H"])
        self.grads["b"] += dZ.sum(axis=0)
        self.grads["W"] += c["X"].T @ dZ
        return dZ @ self.params["W"].T
