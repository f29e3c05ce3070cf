"""One-command AGL benchmark.

    python3 perfbench/run.py --workload uug_infer --seed 1 --seconds 15 --trace 0

Runs one closed-loop workload (see ``workloads.py``) against the ``repro``
package under ``src/`` on its own Spark ``local[nproc]`` session, checks
every operation's output, and prints a table of metrics followed, as the
last line of standard output, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run sets up ``SETUP_REPS`` times (``setup_s`` = Spark start + median
set-up + warm-up), warms up, then makes passes until ``--seconds`` are up
and at least ``MIN_PASSES`` are done. Each phase's rate is its median over
the passes; ``phase_rate_geomean`` is their geometric mean. The table
also prints each phase's named rate and ``failed_op_frac``; the JSON's
``failed``/``attempted`` carry the same fraction.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes, reports the
per-layer metrics (see ``tracing.py``) and the tracing overhead, lists
what the wrappers cannot reach, and writes the spans to
``.perfbench_out/``. Spans inside ``src/``, per-round GraphInfer spans and
the ``EXPERIMENTS.md`` figures are not part of this benchmark.

``--tiny`` shrinks every input for the benchmark's own tests
(``python -m pytest perfbench -q``). Scratch files live under
``.perfbench_work/`` in the checkout and are removed on exit.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DRIVER_MEMORY = "2g"
#: the metrics BENCHMARK.json gates; the named per-phase rates and
#: failed_op_frac are printed alongside (failed/attempted also head the JSON)
END_TO_END = ("setup_s", "phase_rate_geomean", "driver_peak_rss_mb", "jvm_peak_rss_mb")
#: passes a run makes even after its --seconds are up; the median is reported
MIN_PASSES = 3


def spark_settings(nproc: int, work: Path) -> dict[str, str]:
    return {
        "spark.master": f"local[{nproc}]",
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.sql.shuffle.partitions": str(2 * nproc),
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.driver.host": "127.0.0.1",
        "spark.local.dir": str(work / "spark-local"),
        # a fixed-size heap under the parallel collector, so the JVM's peak
        # RSS follows the data rather than G1's adaptive heap sizing
        "spark.driver.extraJavaOptions": (
            f"-Djava.io.tmpdir={work / 'tmp'} -XX:-UsePerfData -XX:+UseParallelGC -Xms{DRIVER_MEMORY}"
        ),
        "spark.executorEnv.PYTHONPATH": str(SRC),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def start_spark(settings: dict[str, str]):
    """A fresh session; spark-submit reads these confs at JVM launch."""
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in settings.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def jvm_peak_rss_mb() -> float:
    """VmHWM of the Spark JVM this process launched."""
    from pyspark import SparkContext

    pid = SparkContext._gateway.proc.pid
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM for the Spark JVM")


def stop_spark(spark) -> None:
    """Stop the session, then close the gateway and wait for the JVM."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    spark.stop()
    if gw is None:
        return
    gw.shutdown()
    proc = gw.proc
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = SparkContext._jvm = None
    # the JVM's Python workers get SIGTERM when it stops; wait them out
    deadline = time.monotonic() + 30
    while (strays := spark_workers()) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in strays:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)


def spark_workers() -> list[int]:
    """Live pyspark worker processes in this process group."""
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == os.getpid():
            continue
        try:
            if os.getpgid(int(d)) != os.getpgrp():
                continue
            with open(f"/proc/{d}/cmdline", "rb") as f:
                cmd = f.read()
            with open(f"/proc/{d}/stat") as f:
                zombie = f.read().rsplit(")", 1)[1].split()[0] == "Z"
        except OSError:
            continue
        if b"pyspark.daemon" in cmd and not zombie:
            out.append(int(d))
    return out


# ------------------------------------------------------------------ metrics
def rate(ops) -> float:
    return sum(op.items for op in ops) / sum(op.seconds for op in ops)


def phase_rates(passes, phase: str) -> list[float]:
    """Items per second of ``phase`` in each pass."""
    return [rate([op for op in p if op.phase == phase]) for p in passes]


def describe(values: list[float]) -> str:
    """Sample count and spread of per-pass values."""
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4, method="inclusive")
    seq = " ".join(f"{v:.4g}" for v in values[:8])
    return f"n={len(values)} q1={q[0]:.4g} q3={q[2]:.4g} in order: {seq}"


@dataclass
class Measured:
    """What one run measured, before it is summarised."""

    wl: object
    tracer: object
    passes: list  # untraced passes, each a list of workloads.Op
    traced: list
    spark_start_s: float
    setup_times: list[float]
    warmup_s: float
    jvm_mb: float
    cost_report: dict


def measure(args, work: Path) -> Measured:
    from tracing import Tracer
    from workloads import WORKLOADS, PpiTrainPS, UugInfer

    nproc = os.cpu_count() or 1
    settings = spark_settings(nproc, work)
    t0 = time.perf_counter()
    spark = start_spark(settings)
    spark_start_s = time.perf_counter() - t0
    try:
        print_settings(args, settings, nproc)
        cls = WORKLOADS[args.workload]
        kw = {}
        if cls is UugInfer:
            kw["perturb"] = args.perturb_original
        if cls is PpiTrainPS:
            kw["n_workers"] = nproc
        wl = cls(spark, str(work), args.seed, args.tiny, **kw)
        tracer = Tracer(spark)

        setup_times = []
        for _ in range(1 if args.trace or args.tiny else wl.SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        if not args.tiny:
            wl.warmup(tracer)
        warmup_s = time.perf_counter() - t0

        # closed loop; a traced run alternates untraced and traced passes
        if args.trace:
            tracer.install()
        passes, traced, report = [], [], {}
        min_passes = 1 if args.trace else MIN_PASSES
        deadline = time.perf_counter() + args.seconds
        try:
            while len(passes) < min_passes or (args.trace and not traced) or time.perf_counter() < deadline:
                tracer.enabled = bool(args.trace) and len(passes) > len(traced)
                ops = wl.run_pass(tracer)
                (traced if tracer.enabled else passes).append(ops)
                tracer.enabled = False
                tracer.release()
            wl.finish([op for p in passes + traced for op in p])
            if args.trace and isinstance(wl, UugInfer):
                tracer.enabled = True
                report = wl.cost_report()
                tracer.enabled = False
        finally:
            tracer.uninstall()
        jvm_mb = jvm_peak_rss_mb()
    finally:
        stop_spark(spark)
    return Measured(wl, tracer, passes, traced, spark_start_s, setup_times, warmup_s, jvm_mb, report)


def print_settings(args, settings: dict[str, str], nproc: int) -> None:
    import numpy
    import pyarrow
    import pyspark

    recorded = (
        "spark.master", "spark.driver.memory", "spark.sql.shuffle.partitions",
        "spark.sql.autoBroadcastJoinThreshold", "spark.ui.enabled",
        "spark.sql.execution.arrow.pyspark.enabled", "spark.driver.extraJavaOptions",
    )
    print("settings " + json.dumps({
        **{k: settings[k] for k in recorded},
        "git_sha": git_sha(), "nproc": nproc, "python": platform.python_version(),
        "spark": pyspark.__version__, "numpy": numpy.__version__, "pyarrow": pyarrow.__version__,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
    }), flush=True)


def summarize(args, m: Measured) -> dict:
    """Print the metric table; return the result object."""
    from tracing import PER_LAYER, UNREACHABLE

    ops = [op for p in m.passes + m.traced for op in p]
    failed = sum(not op.ok for op in ops)
    setups = ", ".join(f"{t:.3g}" for t in m.setup_times)
    rows = [("setup_s", m.spark_start_s + statistics.median(m.setup_times) + m.warmup_s, "s",
             f"spark_start={m.spark_start_s:.3g} setups=[{setups}] warmup={m.warmup_s:.3g}")]
    medians = {}
    for phase, (name, unit) in m.wl.phase_metrics.items():
        rs = phase_rates(m.passes, phase)
        medians[name] = statistics.median(rs)
        rows.append((name, medians[name], unit, f"median per pass, {describe(rs)}"))
    geomean = math.prod(medians.values()) ** (1 / len(medians))
    rows.insert(1, ("phase_rate_geomean", geomean, "items/s", "geometric mean of " + ", ".join(medians)))
    rows += [
        ("driver_peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss"),
        ("jvm_peak_rss_mb", m.jvm_mb, "MB", "VmHWM"),
        ("failed_op_frac", failed / len(ops), "frac", f"{failed}/{len(ops)} ops"),
    ]
    rows += [(f"check.{k}", v, "", "") for k, v in m.wl.check_values().items()]

    if args.trace:
        n = len(m.traced)
        layer = m.tracer.layer_metrics(n)
        if "max_inbox" in m.cost_report:
            layer["infer.max_inbox"] = m.cost_report["max_inbox"]
        if m.wl.name == "ppi_train_ps":
            layer["ps.records"] = m.wl.table4.n_targets
        untraced_s = statistics.median(sum(op.seconds for op in p) for p in m.passes)
        traced_s = statistics.median(sum(op.seconds for op in p) for p in m.traced)
        layer["trace.overhead_frac"] = traced_s / untraced_s - 1
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        m.tracer.write(str(spans))
        rows += [(k, layer[k], PER_LAYER[k], f"{n} traced pass(es)") for k in PER_LAYER]
        rows.append(("spans", str(spans.relative_to(ROOT)), "", ""))
        rows += [("unreachable", what, "", why) for what, why in UNREACHABLE.items()]
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {name: {"value": v, "unit": u} for name, v, u, _ in rows if name in END_TO_END}

    for name, v, unit, note in rows:
        val = f"{v:.6g}" if isinstance(v, float) else str(v)
        print(f"{name:40s} {val:>14s} {unit:16s} {note}")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["uug_infer", "ppi_train_ps"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's tests")
    p.add_argument("--perturb-original", type=float, default=0.0, metavar="FRAC",
                   help="uug_infer: perturb the features of the first FRAC of the "
                        "GraphFeatures fed to Original inference (tests the check)")
    args = p.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # Spark's Python workers import repro, so src must be on their path;
    # scratch files stay inside the checkout
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    for d in ("spark-local", "tmp"):
        (work / d).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.environ["PYSPARK_PYTHON"] = os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    sys.path.insert(0, str(SRC))

    try:
        result = summarize(args, measure(args, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
