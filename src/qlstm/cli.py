"""Command-line front end: calibrate, convert, run, bench and PWL inspection.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 validation error.
Failures print a single-line diagnostic to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import runtime, serialize
from .pwl import ACTIVATIONS, build_pwl, dump_pwl_csv, eval_pwl_real
from .quant import compute_qparams, dequantize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class BenchRow:
    config: str
    mean_ms: float
    iters_per_sec: float
    speedup: float


@dataclass
class BenchReport:
    """Per-configuration latency summary; speedup is relative to the float path."""

    warmup: int
    iters: int
    rows: list = field(default_factory=list)

    def csv(self) -> str:
        lines = ["config,mean_ms,iters_per_sec,speedup"]
        for r in self.rows:
            lines.append(f"{r.config},{r.mean_ms:.3f},{r.iters_per_sec:.3f},{r.speedup:.3f}")
        return "\n".join(lines) + "\n"

    def text(self) -> str:
        lines = [f"warmup={self.warmup} iters={self.iters}"]
        for r in self.rows:
            lines.append(
                f"  {r.config:<16} {r.mean_ms:9.3f} ms  {r.iters_per_sec:8.3f} iter/s  {r.speedup:5.2f}x"
            )
        return "\n".join(lines)


def _read_sequences(path: str, input_format: str, feat_dim: int | None):
    """Token files carry one space-separated id sequence per line; f32 files
    carry one sequence of little-endian float32 frames."""
    if input_format == "tokens":
        seqs = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    seqs.append(np.array([int(v) for v in line.split()], dtype=np.int64))
        return seqs
    if input_format == "f32":
        if not feat_dim or feat_dim < 1:
            raise ValueError("--feat-dim is required for f32 input")
        raw = np.fromfile(path, dtype="<f4")
        if raw.size == 0 or raw.size % feat_dim != 0:
            raise ValueError("f32 input length is not a multiple of --feat-dim")
        return [raw.reshape(-1, feat_dim).astype(np.float64)]
    raise ValueError(f"unknown input format {input_format!r}")


def cmd_calibrate(args) -> int:
    model = serialize.load(args.model)
    if not isinstance(model, runtime.FloatModel):
        raise ValueError("calibration needs a float model")
    seqs = _read_sequences(args.data, args.input_format, args.feat_dim)
    ranges = runtime.calibrate(model, seqs)
    doc = {
        "version": 1,
        "stages": {k: {"min": v[0], "max": v[1]} for k, v in sorted(ranges.items())},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"calibrated {len(ranges)} stages -> {args.out}")
    return EXIT_OK


def cmd_convert(args) -> int:
    model = serialize.load(args.model)
    if not isinstance(model, runtime.FloatModel):
        raise ValueError("conversion needs a float model")
    with open(args.qparams, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    ranges = {k: (v["min"], v["max"]) for k, v in doc["stages"].items()}
    int_model = runtime.convert(
        model, ranges, pieces=args.pieces, cell_bits=args.cell_bits
    )
    serialize.save(int_model, args.out)
    print(f"wrote integer model -> {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    model = serialize.load(args.model)
    if not isinstance(model, runtime.IntModel):
        raise ValueError("run needs an integer model")
    seqs = _read_sequences(args.input, args.input_format, args.feat_dim)
    with open(args.out, "w", encoding="utf-8") as fh:
        for seq in seqs:
            out = runtime.run(model, seq)
            data = out if isinstance(out, np.ndarray) else out.data
            for row in np.atleast_2d(data):
                fh.write(" ".join(str(int(v)) for v in row))
                fh.write("\n")
    print(f"wrote outputs -> {args.out}")
    return EXIT_OK


def _bench_input(model: runtime.IntModel, seq_len: int):
    rng = np.random.default_rng(0)
    first = model.layers[0]
    if model.takes_tokens:
        return rng.integers(0, first.table_q.shape[0], size=seq_len)
    qp = model.input_qp
    return rng.uniform(qp.min, qp.max, size=(seq_len, first.input_size))


def _time_config(fn, warmup: int, iters: int) -> float:
    for _ in range(warmup):
        fn()
    start = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - start) / iters


def bench_model(model: runtime.IntModel, seq_len: int, warmup: int, iters: int) -> BenchReport:
    """Time the float reference, the integer engine and the integer engine
    with full-precision activations on the same weights and input."""
    if iters < 1:
        raise ValueError("iters must be at least 1")
    seq = _bench_input(model, seq_len)
    float_model = runtime.dequantize_model(model)

    configs = [
        ("float", lambda: runtime.forward_float(float_model, seq)),
        ("int_pwl", lambda: runtime.run(model, seq)),
        ("int_float_act", lambda: runtime.run(model, seq, float_act=True)),
    ]
    report = BenchReport(warmup=warmup, iters=iters)
    times = {}
    for name, fn in configs:
        times[name] = _time_config(fn, warmup, iters)
    for name, _ in configs:
        t = times[name]
        report.rows.append(
            BenchRow(
                config=name,
                mean_ms=t * 1e3,
                iters_per_sec=(1.0 / t) if t > 0 else float("inf"),
                speedup=times["float"] / t if t > 0 else float("inf"),
            )
        )
    return report


def cmd_bench(args) -> int:
    model = serialize.load(args.model)
    if not isinstance(model, runtime.IntModel):
        raise ValueError("bench needs an integer model")
    report = bench_model(model, args.seq_len, args.warmup, args.iters)
    print(report.text())
    csv = report.csv()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv)
    print(csv, end="")
    return EXIT_OK


def cmd_pwl(args) -> int:
    if args.function not in ("tanh", "sigmoid", "exp", "identity"):
        raise ValueError(f"unsupported function {args.function!r}")
    lo, hi = args.range
    if not lo < hi:
        raise ValueError("range must satisfy a < b")
    in_qp = compute_qparams(lo, hi, args.bits)
    f = ACTIVATIONS[args.function]
    grid = dequantize(np.arange(in_qp.qmax + 1, dtype=np.int64), in_qp)
    vals = f(grid)
    out_qp = compute_qparams(float(vals.min()), float(vals.max()), 8)
    table = build_pwl(args.function, in_qp, out_qp, args.pieces)
    approx = eval_pwl_real(grid, table)
    err = np.abs(approx - vals)
    with open(args.out, "w", encoding="utf-8") as fh:
        dump_pwl_csv(table, fh)
    print(
        f"function={args.function} pieces={args.pieces} bits={args.bits} "
        f"max_abs_err={err.max():.9f} mean_abs_err={err.mean():.9f}"
    )
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="qlstm", description="integer-only LSTM inference toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("calibrate", help="gather per-stage ranges on sample data")
    c.add_argument("--model", required=True)
    c.add_argument("--data", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--input-format", choices=("tokens", "f32"), default="tokens")
    c.add_argument("--feat-dim", type=int, default=None)
    c.set_defaults(fn=cmd_calibrate)

    c = sub.add_parser("convert", help="quantize a calibrated float model")
    c.add_argument("--model", required=True)
    c.add_argument("--qparams", required=True)
    c.add_argument("--pieces", type=int, default=16)
    c.add_argument("--cell-bits", type=int, choices=(8, 16), default=8)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_convert)

    c = sub.add_parser("run", help="run an integer model over an input file")
    c.add_argument("--model", required=True)
    c.add_argument("--input", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--input-format", choices=("tokens", "f32"), default="tokens")
    c.add_argument("--feat-dim", type=int, default=None)
    c.set_defaults(fn=cmd_run)

    c = sub.add_parser("bench", help="time float vs integer configurations")
    c.add_argument("--model", required=True)
    c.add_argument("--seq-len", type=int, default=128)
    c.add_argument("--warmup", type=int, default=5)
    c.add_argument("--iters", type=int, default=100)
    c.add_argument("--csv", default=None)
    c.set_defaults(fn=cmd_bench)

    c = sub.add_parser("pwl", help="dump a PWL table and its error statistics")
    c.add_argument("--function", required=True)
    c.add_argument("--range", nargs=2, type=float, required=True)
    c.add_argument("--bits", type=int, choices=(8, 16), default=8)
    c.add_argument("--pieces", type=int, required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_pwl)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, IsADirectoryError, PermissionError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, serialize.ModelFormatError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
