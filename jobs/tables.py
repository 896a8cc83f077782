"""spark-submit entrypoint: reproduce one group of the paper's tables.

Runs the group's sweep and writes each of its tables to
``results/<name>.txt`` (or ``$REPRO_RESULTS_DIR``). Groups: sift
(Tables 1-3), gist (4-6), groups (7), realworld (8-9).

Example:
    spark-submit jobs/tables.py --group sift [--scale 0.1]
"""
import argparse
import tempfile

from repro.eval.experiments import TABLE_GROUPS, emit_table

from _session import get_session


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--group", required=True, choices=sorted(TABLE_GROUPS))
    ap.add_argument("--scale", type=float, default=1.0,
                    help="dataset size factor; <1 shrinks every dataset")
    ap.add_argument("--work-dir", default=None,
                    help="where the index stores are built (default: a new temp dir)")
    args = ap.parse_args()
    runner, tables = TABLE_GROUPS[args.group]
    spark = get_session(f"lanns-{args.group}")
    work = args.work_dir or tempfile.mkdtemp(prefix=f"lanns-{args.group}-")
    result = runner(spark, work, scale=args.scale)
    for name, title, render in tables:
        emit_table(name, title, render(result))
    spark.stop()


if __name__ == "__main__":
    main()
