#!/usr/bin/env python3
"""Benchmark of the integer LSTM engine: one workload, one seed, one result.

    python3 perfbench/run.py --workload cell400 --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass.  The line before it holds the workload, seed and host details.
``--out FILE`` also appends both to FILE as one JSON line.  Exit codes: 0
correct, 1 an output differed from the oracle (or the integer path touched
floats, or the exact counts did not repeat), 2 the package was not found.
"""
import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cell400", "seq2seq", "bilstm16")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="append the result as one JSON line to this file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # pinned before numpy loads; the float reference is measured under the same setting
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path[0:1] = [str(src), str(ROOT)]
    try:
        import qlstm
    except ImportError as e:
        print(f"cannot import qlstm from {src}: {e}", file=sys.stderr)
        return 2
    if Path(qlstm.__file__).resolve().parent.parent != src.resolve():
        print(f"qlstm imported from {qlstm.__file__}, not from {src}", file=sys.stderr)
        return 2

    from perfbench import bench, workloads

    workload = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-model-", dir=out_dir))
    try:
        if args.trace:
            span_file = out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
            res = bench.traced(workload, args.seed, args.seconds, workdir, span_file)
        else:
            res = bench.end_to_end(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()},
    }
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    info |= res["info"]
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"info": info, "result": result}) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
