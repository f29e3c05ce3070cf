"""Outside-in tracing for the benchmark.

The wrappers here are installed from benchmark code only: they replace
public entry points of the ``repro`` modules (module attributes and
class attributes) with timing shims and put the originals back on
``uninstall``. Nothing inside ``src/`` is edited. Functions that return
a lazy Spark DataFrame are timed by persisting their result and forcing
a full evaluation with a ``noop`` write, so each layer's Spark work is
paid inside its own span (the later consumer reads the cache).

Spans live in memory and are written out as JSON lines when the run
ends. Hot per-record calls (decode, aggregation kernels) are folded into
running totals instead of one span per call.

Only code running in the benchmark process is reachable. Spark Python
workers import ``repro`` afresh, so executor-side work (the Original and
GraphInfer forwards, the PS workers' vectorize and gradients) is listed
in :data:`UNREACHABLE` instead of measured.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time

#: Every per-layer metric the traced run reports, with its unit. Layers
#: a workload leaves idle, or cannot reach from outside, report 0.
PER_LAYER = {
    "sampling.sample_s": "s",
    "sampling.edges_in": "count",
    "sampling.edges_kept": "count",
    "sampling.max_in_degree_in": "count",
    "sampling.max_in_degree_kept": "count",
    "graphflat.khop1_s": "s",
    "graphflat.khop2_s": "s",
    "graphflat.members_d1": "count",
    "graphflat.members_d2": "count",
    "graphflat.subgraph_edges": "count",
    "graphflat.build_s": "s",
    "graphflat.assemble_self_s": "s",
    "graphfeature.store_s": "s",
    "graphfeature.encode_write_self_s": "s",
    "graphfeature.records": "count",
    "graphfeature.bytes": "B",
    "graphfeature.decode_s": "s",
    "graphfeature.decode_calls": "count",
    "vectorize.merge_s": "s",
    "vectorize.prune_s": "s",
    "vectorize.nodes_in": "count",
    "vectorize.nodes_merged": "count",
    "vectorize.edges_full": "count",
    "vectorize.edges_kept": "count",
    "trainer.read_s": "s",
    "trainer.prefetch_wait_s": "s",
    "trainer.steps": "count",
    "nn.forward_s": "s",
    "nn.backward_s": "s",
    "nn.agg_s": "s",
    "nn.agg_calls": "count",
    "nn.agg_edges": "count",
    "nn.adam_s": "s",
    "ps.round_s_p50": "s",
    "ps.round_s_p90": "s",
    "ps.param_bytes": "B",
    "ps.records": "count",
    "ps.workers": "count",
    "infer.original_s": "s",
    "infer.graphinfer_s": "s",
    "infer.original_node_computations": "count",
    "infer.original_edge_traversals": "count",
    "infer.graphinfer_node_computations": "count",
    "infer.graphinfer_edge_traversals": "count",
    "infer.max_inbox": "count",
    "spark.tasks.flat": "count",
    "spark.tasks.original": "count",
    "spark.tasks.graphinfer": "count",
    "spark.tasks.ps": "count",
    "spark.failed_tasks": "count",
    "host.cpu_busy_frac.flat": "frac",
    "host.cpu_busy_frac.original": "frac",
    "host.cpu_busy_frac.graphinfer": "frac",
    "host.cpu_busy_frac.train": "frac",
    "host.cpu_busy_frac.ps": "frac",
    "trace.overhead_frac": "frac",
}

#: Metrics the outside-in wrappers cannot observe, and why.
UNREACHABLE = {
    "nn.* in uug_infer and in the ps phase (except nn.adam_s, the Spark driver's Adam step)": (
        "those forwards and backwards run inside Spark Python workers, which "
        "import repro afresh; wrappers in the Spark driver do not reach them"
    ),
    "vectorize.*, graphfeature.decode_* in uug_infer and in the ps phase": (
        "merge_batch and SubgraphRecord.from_bytes run inside Spark Python "
        "workers there; the figures cover the GraphTrainer epochs only"
    ),
    "infer.max_inbox": (
        "the inbox is built inside run_graph_infer; the value is derived as "
        "the sampled table's largest in-degree plus the GAT self-loop, not "
        "observed per round"
    ),
    "graphflat.khop1_s, khop2_s per hop": (
        "khop_members runs its hops in one call; the wrapper times a "
        "separate K=1 call, so khop2_s is cumulative and includes hop 1"
    ),
    "degree counts in nn.agg_*": (
        "Edges.in_degrees calls np.add.at directly, not through Aggregator"
    ),
}

PHASES = ("flat", "original", "graphinfer", "train", "ps")

_AGG_METHODS = ("scatter_add", "gather_scale_reduce", "segment_max", "segment_softmax")


def cpu_times() -> tuple[int, int]:
    """(busy, total) jiffies over all CPUs, from the first line of /proc/stat."""
    with open("/proc/stat") as f:
        vals = [int(v) for v in f.readline().split()[1:]]
    idle = vals[3] + (vals[4] if len(vals) > 4 else 0)
    return sum(vals) - idle, sum(vals)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``enabled`` switches recording on and off without reinstalling the
    wrappers, so one run can alternate traced and untraced passes.
    """

    def __init__(self, spark):
        self.spark = spark
        self.enabled = False
        self.spans: list[dict] = []
        self.totals: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._persisted: list = []
        self._next_id = 0

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.totals[key] = self.totals.get(key, 0.0) + value

    @contextlib.contextmanager
    def span(self, name: str, **counters):
        """Record ``name`` around the body. The yielded dict is the span
        record itself, so counters may be filled in after the body ends."""
        if not self.enabled:
            yield counters
            return
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack = self._stack()
        rec = dict(id=sid, parent=stack[-1] if stack else None, name=name,
                   thread=threading.get_ident(), **counters)
        stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    @contextlib.contextmanager
    def phase(self, name: str):
        """One timed operation. Yields a dict whose ``seconds`` is the
        body's wall time; when tracing, the dict is also the phase span,
        with the Spark tasks of the phase's job group and the CPU busy
        share, both read after the body's clock stops."""
        if not self.enabled:
            rec = {}
            t0 = time.perf_counter()
            yield rec
            rec["seconds"] = time.perf_counter() - t0
            return
        sc = self.spark.sparkContext
        group = f"perfbench-{name}-{self._next_id}"
        sc.setJobGroup(group, name)
        busy0, total0 = cpu_times()
        try:
            with self.span(f"phase.{name}") as rec:
                yield rec
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        busy1, total1 = cpu_times()
        rec["seconds"] = rec["end"] - rec["start"]
        rec["cpu_busy"], rec["cpu_total"] = busy1 - busy0, total1 - total0
        rec["tasks"], rec["failed_tasks"] = self._group_tasks(group)

    def _group_tasks(self, group: str) -> tuple[int, int]:
        tracker = self.spark.sparkContext.statusTracker()
        tasks = failed = 0
        for jid in tracker.getJobIdsForGroup(group):
            job = tracker.getJobInfo(jid)
            for sid in job.stageIds if job else ():
                st = tracker.getStageInfo(sid)
                if st:
                    tasks += st.numCompletedTasks
                    failed += st.numFailedTasks
        return tasks, failed

    def materialize(self, df):
        """Persist ``df`` and evaluate every column of it."""
        df = df.persist()
        df.write.format("noop").mode("overwrite").save()
        self._persisted.append(df)
        return df

    def release(self) -> None:
        """Drop the frames persisted by traced calls (end of a pass)."""
        for df in self._persisted:
            df.unpersist()
        self._persisted.clear()

    # ------------------------------------------------------------- patching
    def _patch(self, owner, attr: str, new) -> None:
        """Replace ``owner.attr`` (a module or class attribute); the raw
        ``__dict__`` entry is kept so classmethods restore intact."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def install(self) -> None:
        """Wrap the public entry points of each layer."""
        from pyspark.sql import functions as F

        from repro.core import graphfeature, graphflat, infer, ps, trainer, vectorize
        from repro.nn import aggregators, models, optim

        tr = self

        def max_in_degree(edges) -> int:
            row = edges.groupBy("dst").count().agg(F.max("count")).first()
            return int(row[0] or 0)

        orig_sample = graphflat.sample_in_edges

        def sample_in_edges(edges, max_degree, **kw):
            if not tr.enabled:
                return orig_sample(edges, max_degree, **kw)
            with tr.span("sampling.sample") as c:
                out = tr.materialize(orig_sample(edges, max_degree, **kw))
            c.update(edges_in=edges.count(), edges_kept=out.count(),
                     max_in_degree_in=max_in_degree(edges),
                     max_in_degree_kept=max_in_degree(out))
            return out

        # patched in the namespaces the timed callers look the name up in
        self._patch(graphflat, "sample_in_edges", sample_in_edges)
        self._patch(infer, "sample_in_edges", sample_in_edges)

        orig_khop = graphflat.khop_members

        def khop_members(edges, targets, k):
            if not tr.enabled:
                return orig_khop(edges, targets, k)
            out = c = None
            for h in range(1, k + 1):
                with tr.span(f"graphflat.khop{h}") as c:
                    out = tr.materialize(orig_khop(edges, targets, h))
            by_dist = dict(out.groupBy("dist").count().collect())
            c.update({f"members_d{d}": int(by_dist.get(d, 0)) for d in range(1, k + 1)})
            return out

        # not in infer: the cost report's own khop_members stays untraced
        self._patch(graphflat, "khop_members", khop_members)

        orig_build = graphflat.build_graph_features

        def build_graph_features(*a, **kw):
            if not tr.enabled:
                return orig_build(*a, **kw)
            with tr.span("graphflat.build") as c:
                out = tr.materialize(orig_build(*a, **kw))
            c["subgraph_edges"] = int(out.select(F.sum(F.size("edges"))).first()[0] or 0)
            return out

        self._patch(graphflat, "build_graph_features", build_graph_features)

        orig_store = graphfeature.store_graph_features

        def store_graph_features(gf, path):
            if not tr.enabled:
                return orig_store(gf, path)
            with tr.span("graphfeature.store") as c:
                orig_store(gf, path)
            stored = gf.sparkSession.read.parquet(path)
            row = stored.select(F.count("*"), F.sum(F.length("gf"))).first()
            c.update(records=int(row[0]), bytes=int(row[1] or 0))

        self._patch(graphfeature, "store_graph_features", store_graph_features)

        for name, span_name in (("run_original_inference", "infer.original"),
                                ("run_graph_infer", "infer.graphinfer")):
            self._patch(infer, name, self._lazy_wrapper(getattr(infer, name), span_name))

        orig_cost = infer.inference_cost_report

        def inference_cost_report(*a, **kw):
            with tr.span("infer.cost_report") as c:
                out = orig_cost(*a, **kw)
            c.update(out)
            return out

        self._patch(infer, "inference_cost_report", inference_cost_report)

        orig_batches = trainer.ParquetSource.batches

        def batches(src, epoch):
            it = orig_batches(src, epoch)
            while True:
                with tr.span("trainer.read") as c:
                    try:
                        b = next(it)
                    except StopIteration:
                        return
                    c["records"] = len(b)
                yield b

        self._patch(trainer.ParquetSource, "batches", batches)

        orig_from_bytes = graphfeature.SubgraphRecord.__dict__["from_bytes"].__func__

        def from_bytes(cls, buf):
            if not tr.enabled:
                return orig_from_bytes(cls, buf)
            t0 = time.perf_counter()
            out = orig_from_bytes(cls, buf)
            tr.add("graphfeature.decode_s", time.perf_counter() - t0)
            tr.add("graphfeature.decode_calls", 1)
            return out

        self._patch(graphfeature.SubgraphRecord, "from_bytes", classmethod(from_bytes))

        orig_merge = vectorize.merge_batch

        def merge_batch(records):
            if not tr.enabled:
                return orig_merge(records)
            with tr.span("vectorize.merge") as c:
                out = orig_merge(records)
            c.update(nodes_in=sum(r.n_nodes for r in records), nodes_merged=out.n_nodes)
            return out

        self._patch(vectorize, "merge_batch", merge_batch)
        self._patch(trainer, "merge_batch", merge_batch)

        orig_adj = vectorize.BatchGraph.adj_list

        def adj_list(bg, n_layers, *, self_loops, pruning):
            if not tr.enabled:
                return orig_adj(bg, n_layers, self_loops=self_loops, pruning=pruning)
            with tr.span("vectorize.prune") as c:
                out = orig_adj(bg, n_layers, self_loops=self_loops, pruning=pruning)
            full = bg.n_edges + (bg.n_nodes if self_loops else 0)
            c.update(edges_full=n_layers * full, edges_kept=sum(e.m for e in out))
            return out

        self._patch(vectorize.BatchGraph, "adj_list", adj_list)

        for cls, attr, span_name in ((models.GNNModel, "forward", "nn.forward"),
                                     (models.GNNModel, "backward", "nn.backward"),
                                     (optim.Adam, "step", "nn.adam")):
            self._patch(cls, attr, self._method_wrapper(getattr(cls, attr), span_name))

        for attr in _AGG_METHODS:
            self._patch(aggregators.Aggregator, attr, self._agg_wrapper(getattr(aggregators.Aggregator, attr)))

        orig_round = ps.distributed_gradient

        def distributed_gradient(gf, cfg, d_in, params, n_workers):
            if not tr.enabled:
                return orig_round(gf, cfg, d_in, params, n_workers)
            with tr.span("ps.round") as c:
                out = orig_round(gf, cfg, d_in, params, n_workers)
            c.update(param_bytes=sum(v.nbytes for v in params.values()), workers=n_workers)
            return out

        self._patch(ps, "distributed_gradient", distributed_gradient)

    def _lazy_wrapper(self, fn, span_name):
        tr = self

        def wrapped(*a, **kw):
            if not tr.enabled:
                return fn(*a, **kw)
            with tr.span(span_name):
                return tr.materialize(fn(*a, **kw))

        return wrapped

    def _method_wrapper(self, fn, span_name):
        tr = self

        def wrapped(obj, *a, **kw):
            if not tr.enabled:
                return fn(obj, *a, **kw)
            with tr.span(span_name):
                return fn(obj, *a, **kw)

        return wrapped

    def _agg_wrapper(self, fn):
        """Top-level Aggregator calls only: segment_softmax calls
        segment_max and scatter_add, which must not count twice."""
        tr = self

        def wrapped(agg, values, *a, **kw):
            local = tr._local
            if not tr.enabled or getattr(local, "in_agg", False):
                return fn(agg, values, *a, **kw)
            local.in_agg = True
            t0 = time.perf_counter()
            try:
                return fn(agg, values, *a, **kw)
            finally:
                local.in_agg = False
                # gather_scale_reduce(M, gather_idx, ...): edges = len(gather_idx)
                m = a[0].shape[0] if fn.__name__ == "gather_scale_reduce" else values.shape[0]
                tr.add("nn.agg_s", time.perf_counter() - t0)
                tr.add("nn.agg_calls", 1)
                tr.add("nn.agg_edges", m)

        return wrapped

    # -------------------------------------------------------------- output
    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
            f.write(json.dumps({"name": "totals", **self.totals}) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics from the traced passes.

        Times and counts of work are per traced pass. Peaks (degrees,
        payload sizes, worker count), per-round PS percentiles, the cost
        report and CPU shares are not summed over passes."""
        by_name: dict[str, list[dict]] = {}
        for s in self.spans:
            by_name.setdefault(s["name"], []).append(s)
        def dur(name):
            return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

        def total(name, key):
            return sum(s.get(key, 0) for s in by_name.get(name, ()))

        def peak(name, key):
            return max((s[key] for s in by_name.get(name, ())), default=0)

        summed = {
            "sampling.sample_s": dur("sampling.sample"),
            "sampling.edges_in": total("sampling.sample", "edges_in"),
            "sampling.edges_kept": total("sampling.sample", "edges_kept"),
            "graphflat.khop1_s": dur("graphflat.khop1"),
            "graphflat.khop2_s": dur("graphflat.khop2"),
            "graphflat.members_d1": total("graphflat.khop2", "members_d1"),
            "graphflat.members_d2": total("graphflat.khop2", "members_d2"),
            "graphflat.subgraph_edges": total("graphflat.build", "subgraph_edges"),
            "graphflat.build_s": dur("graphflat.build"),
            "graphfeature.encode_write_self_s": dur("graphfeature.store"),
            "graphfeature.records": total("graphfeature.store", "records"),
            "graphfeature.bytes": total("graphfeature.store", "bytes"),
            "vectorize.merge_s": dur("vectorize.merge"),
            "vectorize.prune_s": dur("vectorize.prune"),
            "vectorize.nodes_in": total("vectorize.merge", "nodes_in"),
            "vectorize.nodes_merged": total("vectorize.merge", "nodes_merged"),
            "vectorize.edges_full": total("vectorize.prune", "edges_full"),
            "vectorize.edges_kept": total("vectorize.prune", "edges_kept"),
            "nn.forward_s": dur("nn.forward"),
            "nn.backward_s": dur("nn.backward"),
            "nn.adam_s": dur("nn.adam"),
            "infer.original_s": dur("infer.original"),
            "infer.graphinfer_s": dur("infer.graphinfer"),
            "spark.failed_tasks": sum(total(f"phase.{ph}", "failed_tasks") for ph in PHASES),
        }
        for key in ("graphfeature.decode_s", "graphfeature.decode_calls",
                    "nn.agg_s", "nn.agg_calls", "nn.agg_edges"):
            summed[key] = self.totals.get(key, 0.0)
        for ph in ("flat", "original", "graphinfer", "ps"):
            summed[f"spark.tasks.{ph}"] = total(f"phase.{ph}", "tasks")
        # GraphFlat self time: the build span minus the spans nested in it
        flat_sample = sum(self._child_time(s, "sampling.sample") for s in by_name.get("graphflat.build", ()))
        summed["graphflat.assemble_self_s"] = (
            summed["graphflat.build_s"] - summed["graphflat.khop1_s"] - summed["graphflat.khop2_s"] - flat_sample
        )
        summed["graphfeature.store_s"] = summed["graphflat.build_s"] + summed["graphfeature.encode_write_self_s"]
        # the epoch's own thread: what is left of the epoch after reading
        # and compute is waiting on the prefetch thread
        epochs = {s["id"] for s in by_name.get("phase.train", ())}
        in_epoch = {n: [s for s in by_name.get(n, ()) if s["parent"] in epochs]
                    for n in ("trainer.read", "nn.forward", "nn.backward", "nn.adam")}
        busy = {n: sum(s["end"] - s["start"] for s in spans) for n, spans in in_epoch.items()}
        summed["trainer.read_s"] = busy["trainer.read"]
        if epochs:
            summed["trainer.prefetch_wait_s"] = dur("phase.train") - sum(busy.values())
        summed["trainer.steps"] = len(in_epoch["nn.adam"])

        out = {k: v / passes for k, v in summed.items()}
        out["sampling.max_in_degree_in"] = peak("sampling.sample", "max_in_degree_in")
        out["sampling.max_in_degree_kept"] = peak("sampling.sample", "max_in_degree_kept")
        rounds = sorted(s["end"] - s["start"] for s in by_name.get("ps.round", ()))
        if rounds:
            out["ps.round_s_p50"] = statistics.median(rounds)
            out["ps.round_s_p90"] = rounds[min(len(rounds) - 1, int(0.9 * len(rounds)))]
            out["ps.param_bytes"] = peak("ps.round", "param_bytes")
            out["ps.workers"] = peak("ps.round", "workers")
        for key in ("original_node_computations", "original_edge_traversals",
                    "graphinfer_node_computations", "graphinfer_edge_traversals"):
            out[f"infer.{key}"] = peak("infer.cost_report", key)
        for ph in PHASES:
            busy, tot = total(f"phase.{ph}", "cpu_busy"), total(f"phase.{ph}", "cpu_total")
            out[f"host.cpu_busy_frac.{ph}"] = busy / tot if tot else 0.0
        return {k: float(out.get(k, 0.0)) for k in PER_LAYER}

    def _child_time(self, parent: dict, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["thread"] == parent["thread"]
                   and parent["start"] <= s["start"] and s["end"] <= parent["end"])
