#!/usr/bin/env python3
"""TRIPS benchmark: train -> translate -> view, end to end or per layer.

Run from the repository root:

    python3 tripsbench/run.py --workload mall --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is a separate traced run that times each layer from the
outside and writes its spans to ``tripsbench/out/``. Every translation
is checked against a serial reference (``gate.py``). The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. README.md in this directory
says what each metric measures.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import resource
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up is repeated in a run; the median is reported.
SETUP_REPS = 3
#: Training repetitions in a traced run; the medians of its steps are
#: reported.
TRAIN_REPS = 8
#: Warm translations in an end-to-end run, at the least, however short
#: ``--seconds`` is.
MIN_WARM = 2
MAX_CORES = 4
DRIVER_MEMORY = "2g"


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks the workload for the smoke test",
    )
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# Spark session
# ----------------------------------------------------------------------
def start_spark(work: Path):
    """Local session with the settings of ``jobs/common.py``; every file
    Spark or its Python workers write goes under ``work``. Returns the
    session and the seconds it took to start."""
    tmp, local = work / "tmp", work / "local"
    tmp.mkdir(parents=True)
    local.mkdir()
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # The Python workers import ``repro`` from the checkout's src/.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    cores = min(MAX_CORES, len(os.sched_getaffinity(0)))
    # C1 only: a run is too short for C2 to pay off, and C2 compilation
    # competes with the Python workers for the cores.
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData -XX:TieredStopAtLevel=1"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf " + shlex.quote(f"spark.sql.warehouse.dir={work / 'warehouse'}"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    t0 = time.perf_counter()
    spark = (
        SparkSession.builder.appName("tripsbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark, time.perf_counter() - t0


def stop_spark(spark) -> None:
    """Stop the session and wait for its JVM to exit."""
    proc = getattr(spark.sparkContext._gateway, "proc", None)
    spark.stop()
    if proc is None:
        return
    proc.stdin.close()  # the gateway JVM exits on EOF
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


@contextlib.contextmanager
def spark_session(work: Path, span):
    """``start_spark`` inside a ``spark.start`` span; stops at exit."""
    with span("spark.start"):
        spark, start_s = start_spark(work)
    try:
        yield spark, start_s
    finally:
        stop_spark(spark)


# ----------------------------------------------------------------------
# Steps a user waits for
# ----------------------------------------------------------------------
def translate_once(inputs, model):
    """One ``translate()`` through a materialised ``complemented``.
    Returns (output, seconds, result)."""
    from repro.core import translate

    t0 = time.perf_counter()
    res = translate(inputs.raw, inputs.dsm, model)
    out = res.complemented.toPandas()
    return out, time.perf_counter() - t0, res


def release(res) -> None:
    for df in (res.cleaned, res.semantics, res.knowledge):
        df.unpersist()


def view(spark, raw, cleaned, complemented_pdf, span):
    """Raw, cleaned and complemented-semantics timeline entries ->
    map-view payload. Returns the number of entries."""
    from repro.core import SEMANTICS_COLUMNS, SEMANTICS_SCHEMA
    from repro.viewer import (
        combine_sources,
        entries_from_records,
        entries_from_semantics,
        map_view_payload,
    )

    # The Viewer opens a translation result, not a live Spark plan.
    semantics = spark.createDataFrame(
        complemented_pdf[SEMANTICS_COLUMNS], SEMANTICS_SCHEMA
    )
    with span("viewer.entries") as counts:
        entries = combine_sources(
            entries_from_records(raw, "raw"),
            entries_from_records(cleaned, "cleaned"),
            entries_from_semantics(semantics, cleaned),
        ).toPandas()
        counts["entries"] = len(entries)
    with span("viewer.payload"):
        map_view_payload(entries)
    return len(entries)


def quality(inputs, res, test_devs, gt_df) -> dict:
    """Event and region scores on held-out devices, cleaning error."""
    from repro.core.evaluate import error_summary, positioning_error, semantics_scores

    sem = res.semantics.toPandas()
    gt = inputs.gt_sem_pdf
    scores = semantics_scores(
        sem[sem["device_id"].isin(test_devs)], gt[gt["device_id"].isin(test_devs)]
    )
    err = error_summary(positioning_error(res.cleaned, gt_df))
    return {
        "macro_f1": scores["macro_f1"],
        "region_acc": scores["region_accuracy"],
        "clean_err_m": err["mean_err"],
    }


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def train_repeatedly(pre, wl, span):
    """Train ``TRAIN_REPS`` times, each step in its own span. Returns the
    model and the held-out devices."""
    import workloads

    for _ in range(TRAIN_REPS):
        with span("train"):
            model, test_devs = workloads.train(pre, wl.designations_per_device, span)
    return model, test_devs


# ----------------------------------------------------------------------
# End-to-end run (no tracing)
# ----------------------------------------------------------------------
def run_end_to_end(args, wl, work):
    import gate
    import workloads
    from spans import untraced
    from repro.positioning import from_pandas

    # Training needs no Spark: it runs before the JVM starts. It is not
    # timed here (README.md, Limits).
    pre = workloads.generate(wl, args.seed)
    model, test_devs = workloads.train(pre, wl.designations_per_device)

    with spark_session(work, untraced) as (spark, spark_start_s):
        setup, inputs = [], None
        for _ in range(SETUP_REPS):
            if inputs is not None:
                inputs.raw.unpersist()
            dt, inputs = _timed(lambda: workloads.build(spark, wl, args.seed))
            setup.append(dt)
        prov = provenance(spark, args, wl, inputs)
        ref = gate.serial_reference(spark, inputs.raw_pdf, inputs.dsm, model)
        gt_df = from_pandas(spark, inputs.gt_pdf).cache()

        tally = gate.Tally()
        attempt = lambda: tally.check(  # noqa: E731
            lambda: translate_once(inputs, model), ref
        )
        cold = attempt()
        if cold is None:
            return None, tally, prov
        qual = quality(inputs, cold[2], test_devs, gt_df)
        release(cold[2])

        # Each warm translation is followed by viewing its result, so that
        # both medians sample the whole window.
        warm, views = [], []
        deadline = time.perf_counter() + args.seconds
        for i in itertools.count(1):
            got = attempt()
            if got is not None:
                out, dt, res = got
                warm.append(dt)
                views.append(
                    _timed(
                        lambda: view(spark, inputs.raw, res.cleaned, out, untraced)
                    )[0]
                )
                release(res)
            if i >= MIN_WARM and time.perf_counter() >= deadline:
                break
        if not warm:
            return None, tally, prov

    translate_s = statistics.median(warm)
    metrics = {
        "setup_s": ("s", spark_start_s + statistics.median(setup)),
        "cold_translate_s": ("s", cold[1]),
        "translate_s": ("s", translate_s),
        "records_per_s": ("records/s", len(inputs.raw_pdf) / translate_s),
        "view_s": ("s", statistics.median(views)),
        "peak_rss_mb": (
            "MB",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ),
        "success_rate": ("ratio", 1.0 - tally.error_rate),
        "macro_f1": ("ratio", qual["macro_f1"]),
        "region_acc": ("ratio", qual["region_acc"]),
        "clean_err_m": ("m", qual["clean_err_m"]),
    }
    samples = {
        "spark_start_s": spark_start_s,
        "setup_s": setup,
        "cold_translate_s": cold[1],
        "translate_s": warm,
        "view_s": views,
    }
    return (metrics, samples), tally, prov


# ----------------------------------------------------------------------
# Traced run: one span around each call into a layer
# ----------------------------------------------------------------------
def layers_once(inputs, model, span):
    """The translation layer by layer, each output materialised inside
    its own span. Returns (complemented, (cleaned, semantics, knowledge))."""
    from repro.core import (
        annotate,
        build_knowledge,
        clean,
        complement,
        knowledge_to_dict,
    )

    dsm = inputs.dsm
    with span("cleaning.spark") as counts:
        cleaned = clean(inputs.raw, dsm).cache()
        counts["records_out"] = cleaned.count()
    with span("annotation.spark") as counts:
        semantics = annotate(cleaned, dsm, model).cache()
        counts["semantics_out"] = semantics.count()
    with span("knowledge.spark") as counts:
        knowledge = build_knowledge(semantics).cache()
        trans_counts = knowledge_to_dict(knowledge)
        counts["transitions"] = len(trans_counts)
    with span("complement.spark") as counts:
        out = complement(semantics, dsm, trans_counts).toPandas()
        counts["inferred_out"] = int(out["inferred"].sum())
    return out, (cleaned, semantics, knowledge)


def gap_counts(semantics, complemented) -> tuple[int, float]:
    """Gaps ``find_gaps`` reports, and the share that got at least one
    inferred row."""
    from repro.core import find_gaps

    gaps = find_gaps(semantics).toPandas()
    inferred = complemented[complemented["inferred"]]
    filled = 0
    for g in gaps.itertuples():
        dev = inferred[inferred["device_id"] == g.device_id]
        filled += bool(
            ((dev["t_start"] >= g.gap_start) & (dev["t_end"] <= g.gap_end)).any()
        )
    return len(gaps), (filled / len(gaps) if len(gaps) else 0.0)


def count_exchanges(df) -> int:
    """Shuffle exchanges in the final plan that materialised ``df``,
    including the plans of the cached stages it reads. An adaptive plan
    also keeps its initial plan; that copy is not counted."""
    seen: set[int] = set()

    def walk(node) -> None:
        kind = node.getClass().getSimpleName()
        if kind == "AdaptiveSparkPlanExec":
            return walk(node.executedPlan())
        if kind == "InMemoryTableScanExec":
            walk(node.relation().cachedPlan())
        elif kind.endswith("QueryStageExec"):
            return walk(node.plan())
        elif kind == "ShuffleExchangeExec":
            seen.add(node.id())
        children = node.children()
        for i in range(children.size()):
            walk(children.apply(i))

    walk(df._jdf.queryExecution().executedPlan())
    return len(seen)


def run_traced(args, wl, work, tracer):
    import gate
    import workloads
    from repro.dsm import IndoorGraph

    span = tracer.span
    pre = workloads.generate(wl, args.seed)
    model, _ = train_repeatedly(pre, wl, span)

    with spark_session(work, span) as (spark, _):
        inputs = None
        for _ in range(SETUP_REPS):
            if inputs is not None:
                inputs.raw.unpersist()
            with span("setup"):
                inputs = workloads.build(spark, wl, args.seed, span)
        prov = provenance(spark, args, wl, inputs)
        with span("reference"):
            ref = gate.serial_reference(spark, inputs.raw_pdf, inputs.dsm, model, span)

        tally = gate.Tally()
        with span("translate.cold"):
            cold = tally.check(lambda: translate_once(inputs, model), ref)
        if cold is None:
            return None, tally, prov
        exchanges = count_exchanges(cold[2].complemented)
        release(cold[2])

        # Alternate an untraced translate() with the traced layer-by-layer
        # run and the viewer on its output.
        counted, untraced_s = False, []
        deadline = time.perf_counter() + args.seconds
        while True:
            with span("translate"):
                got = tally.check(lambda: translate_once(inputs, model), ref)
            if got is not None:
                untraced_s.append(got[1])
                release(got[2])
            with span("layers"):
                got = tally.check(lambda: layers_once(inputs, model, span), ref)
            if got is not None:
                complemented, (cleaned, semantics, knowledge) = got
                if not counted:
                    repairs = dict(cleaned.groupBy("repair").count().collect())
                    gaps_found, fill_ratio = gap_counts(semantics, complemented)
                    counted = True
                with span("viewer"):
                    n_entries = view(spark, inputs.raw, cleaned, complemented, span)
                for df in (cleaned, semantics, knowledge):
                    df.unpersist()
            if time.perf_counter() >= deadline:
                break
        if not (counted and untraced_s):
            return None, tally, prov

    raw = inputs.raw_pdf
    for _ in range(3):
        with span("dsm.graph_build"):
            IndoorGraph(inputs.dsm)
        with span("dsm.locate"):
            inputs.dsm.locate_entities(
                raw["x"].to_numpy(), raw["y"].to_numpy(), raw["floor"].to_numpy()
            )

    sec = tracer.seconds
    layer_names = (
        "cleaning.spark",
        "annotation.spark",
        "knowledge.spark",
        "complement.spark",
    )
    metrics = {
        "positioning.ingest_s": ("s", sec("positioning.ingest")),
        "dsm.graph_build_s": ("s", sec("dsm.graph_build")),
        "dsm.locate_s": ("s", sec("dsm.locate")),
        "configurator.designations": (
            "count",
            tracer.count("configurator.designations", "designations"),
        ),
        "configurator.segments_s": ("s", sec("configurator.segments")),
        "core.events.fit_s": ("s", sec("core.events.fit")),
        "cleaning.spark_s": ("s", sec("cleaning.spark")),
        "cleaning.kernel_s": ("s", sec("cleaning.kernel")),
        "cleaning.records_in": ("count", len(inputs.raw_pdf)),
        "cleaning.repaired_floor": ("count", repairs.get("floor", 0)),
        "cleaning.repaired_interp": ("count", repairs.get("interp", 0)),
        "annotation.spark_s": ("s", sec("annotation.spark")),
        "annotation.kernel_s": ("s", sec("annotation.kernel")),
        "annotation.semantics_out": (
            "count",
            tracer.count("annotation.spark", "semantics_out"),
        ),
        "knowledge.spark_s": ("s", sec("knowledge.spark")),
        "knowledge.transitions": (
            "count",
            tracer.count("knowledge.spark", "transitions"),
        ),
        "complement.spark_s": ("s", sec("complement.spark")),
        "complement.kernel_s": ("s", sec("complement.kernel")),
        "complement.gaps_found": ("count", gaps_found),
        "complement.inferred_out": (
            "count",
            tracer.count("complement.spark", "inferred_out"),
        ),
        "complement.fill_ratio": ("ratio", fill_ratio),
        "spark.exchanges": ("count", exchanges),
        "viewer.entries_s": ("s", sec("viewer.entries")),
        "viewer.payload_s": ("s", sec("viewer.payload")),
        "viewer.entries_out": ("count", n_entries),
        "trace.overhead_s": (
            "s",
            sum(sec(n) for n in layer_names) - statistics.median(untraced_s),
        ),
    }
    return (metrics, {}), tally, prov


# ----------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------
def _git_sha() -> str | None:
    import subprocess

    if not (ROOT / ".git").exists():
        return None  # an exported tree, not a git checkout
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _src_sha256() -> str:
    """Digest of every Python file under src/: identifies the code under
    test where no git sha is available."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance(spark, args, wl, inputs) -> dict:
    import numpy
    import pandas

    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "devices": wl.n_devices,
        "duration_s": wl.duration_s,
        "records": len(inputs.raw_pdf),
        "cores": os.cpu_count(),
        "spark_master": spark.sparkContext.master,
        "spark": spark.version,
        "python": platform.python_version(),
        "pandas": pandas.__version__,
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
    }


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(
            f"tripsbench: {SRC / 'repro'} is missing; "
            "run from the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    args = parse_args(argv, sorted(workloads.WORKLOADS))

    wl = workloads.WORKLOADS[args.workload]
    if args.size == "tiny":
        wl = dataclasses.replace(wl, **workloads.TINY)

    # On SIGTERM, unwind through the ``finally`` blocks: they stop the
    # JVM and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = HERE / ".work" / str(os.getpid())
    tracer = Tracer()
    try:
        if args.trace:
            result, tally, prov = run_traced(args, wl, work, tracer)
        else:
            result, tally, prov = run_end_to_end(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    if result is None:
        print(
            f"tripsbench: no translation succeeded "
            f"({tally.failed} of {tally.attempted} failed)",
            file=sys.stderr,
        )
        return 1
    metrics, samples = result
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    entry = {
        "provenance": prov,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
        "samples": samples,
    }
    with open(OUT / f"result-{stem}.json", "w") as f:
        json.dump(entry, f, indent=1)
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.json", provenance=prov)

    for name, (unit, value) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print("provenance " + json.dumps(prov))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": entry["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
