"""LANNS benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload query_sift --seed 1 --seconds 10 --trace 0

It builds nothing: the program is the Python package under ``src/``,
imported from this checkout. It prints a readable report, then as its last
stdout line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``). Everything it writes stays under ``perfbench/``: a run
record in ``perfbench/out/`` and a scratch directory in ``perfbench/.work/``
that is removed when the run ends.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from process start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
N_CORES = min(4, os.cpu_count() or 1)  # local[n], n <= nproc
DEADLINE_S = 170  # a run must end within 180 s; give up before that


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_environment(work: str) -> dict:
    """Environment for the driver, the JVM and the Python workers; set
    before pyspark is imported. Mirrors the session of ``conftest.py`` and
    ``jobs/_session.py``; one BLAS thread per process, since the cores
    already run one Spark task each."""
    mem = os.environ.get("SPARK_DRIVER_MEM", "2g")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    env = {
        "PYSPARK_SUBMIT_ARGS": " ".join(
            [
                f"--master local[{N_CORES}]",
                f"--driver-memory {mem}",
                f"--driver-java-options {shlex.quote(java_opts)}",
                "--conf spark.driver.host=127.0.0.1",
                "--conf spark.ui.enabled=false",
                "--conf spark.ui.showConsoleProgress=false",
                f"--conf spark.local.dir={shlex.quote(tmp)}",
                "pyspark-shell",
            ]
        ),
        "SPARK_LAUNCHER_OPTS": java_opts,  # the JVM spark-submit runs first
        "SPARK_LOCAL_DIRS": tmp,
        "TMPDIR": tmp,
        "PYSPARK_PYTHON": sys.executable,
        "PYTHONPATH": SRC,  # the Python workers import the program from here
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    os.environ.update(env)
    return {"driver_memory": mem, "blas_threads": 1}


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return r.stdout.strip() or "unknown"


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def on_deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    pinned = pin_environment(work)
    sys.path.insert(0, SRC)

    import numpy as np
    import pandas as pd
    import pyspark
    from pyspark.sql import SparkSession

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 2
    signal.signal(signal.SIGALRM, on_deadline)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # clean up
    signal.alarm(DEADLINE_S)
    spark = None
    try:
        spark = (
            SparkSession.builder.appName("lanns-perfbench")
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        spark.sparkContext.setLogLevel("ERROR")
        master = spark.sparkContext.master

        def release_spark() -> None:
            nonlocal spark
            if spark is not None:
                stop_spark(spark)
                spark = None

        ctx = workloads.Ctx(
            spark=spark, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            work=work, t0=T0, release_spark=release_spark,
        )
        outcome = workloads.WORKLOADS[args.workload](ctx)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "spark_master": master,
            "driver_memory": pinned["driver_memory"],
            "blas_threads": pinned["blas_threads"],
            "python": platform.python_version(),
            "numpy": np.__version__,
            "pandas": pd.__version__,
            "pyspark": pyspark.__version__,
            "machine": platform.machine(),
        }
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(work, ignore_errors=True)
        signal.alarm(0)

    want = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    got = outcome.layer if args.trace else outcome.e2e
    missing = sorted(set(want) - set(got))
    if missing:
        outcome.problems.append(f"not measured: {missing}")
    correct = not outcome.problems and outcome.failed == 0 and outcome.attempted > 0
    metrics = {
        name: {"value": float(got[name]), "unit": unit} for name, unit in want.items() if name in got
    }

    print(f"# LANNS perfbench  workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# record " + json.dumps(record))
    prefix = args.workload.split("_")[0]
    outcome.report[f"{prefix}_fail_frac"] = (outcome.failed / max(outcome.attempted, 1), "fraction")
    for name, (value, unit) in outcome.report.items():
        print(f"{args.workload:<13} {name:<38} {value:>14.6g} {unit}")
    for name, m in metrics.items():
        print(f"{args.workload:<13} {name:<38} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:<13} {'attempted':<38} {outcome.attempted:>14d}")
    print(f"{args.workload:<13} {'failed':<38} {outcome.failed:>14d}")
    for p in outcome.problems:
        print(f"# problem: {p}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    out_path = os.path.join(
        HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w") as f:
        json.dump(
            {
                "record": record,
                "report": outcome.report,
                "metrics": metrics,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "pass_seconds": outcome.walls,
                "problems": outcome.problems,
                "trace": outcome.tracer.dump() if args.trace else None,
            },
            f,
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
