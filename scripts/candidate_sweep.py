#!/usr/bin/env python3
"""Knot-search candidate counts on the 16-bit-input tables a conversion builds.

Draws random float stacks (LSTM, MadNorm-LSTM, BiLSTM and attention decoder
layers of width 1-4; weight scales 0.05-8; token input, or frames with input
scales 0.01-50), calibrates each on 1-3 sequences of 1-5 steps and converts
it with 16-bit gates, 8- or 16-bit cells and 1-16 pieces.  Every PWL table
with a 16-bit input grid is then rebuilt from each candidate count and
compared with the full look-up table on its own grids.  Per count it prints
the median and mean of the tables' max and mean errors (output LSB), how
many tables are worse and better than at the largest count, and the median
build time.  A stack whose calibration leaves a degenerate range is skipped.

    PYTHONPATH=src python scripts/candidate_sweep.py --stacks 80 --seed 2026
"""
import argparse
import time
from dataclasses import fields, is_dataclass

import numpy as np

from qlstm import runtime
from qlstm.attention import AttentionWeights
from qlstm.lstm import LstmWeights
from qlstm.pwl import ACTIVATIONS, PwlTable, build_lut, build_pwl


def log_uniform(rng, lo, hi) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def random_stack(rng):
    """A random float model and its calibration sequences."""
    def cell(m, n):
        s = log_uniform(rng, 0.05, 8.0)
        return LstmWeights(rng.normal(0, s, (4 * m, n)), rng.normal(0, s, (4 * m, m)), rng.normal(0, 0.15 * s, 4 * m))

    vocab, frames = 6, bool(rng.integers(2))
    width = n_in = int(rng.integers(1, 5))
    layers = [] if frames else [runtime.EmbeddingLayer(rng.normal(0, 1, (vocab, width)))]
    for _ in range(int(rng.integers(1, 5))):
        kind = rng.choice(["lstm", "lstm_norm", "bilstm", "attn"])
        m = int(rng.integers(2 if kind == "lstm_norm" else 1, 5))
        if kind == "bilstm":
            layers.append(runtime.BiLstmLayer(cell(m, width), cell(m, width)))
            m *= 2
        elif kind == "attn":
            s = log_uniform(rng, 0.05, 8.0)
            attn = AttentionWeights(*(rng.normal(0, s, shape) for shape in [(m, m), (m, width), m, (4 * m, width)]))
            layers.append(runtime.AttentionDecoderLayer(cell(m, width), attn))
        else:
            layers.append(runtime.LstmLayer(cell(m, width), norm=kind == "lstm_norm"))
        width = m
    layers.append(runtime.FinalProjectionLayer(rng.normal(0, 0.5, (vocab, width)), rng.normal(0, 0.1, vocab)))
    scale = log_uniform(rng, 0.01, 50.0)
    lengths = rng.integers(1, 6, size=int(rng.integers(1, 4)))
    if frames:
        return runtime.FloatModel(layers), [rng.normal(0, scale, (int(t), n_in)) for t in lengths]
    return runtime.FloatModel(layers), [rng.integers(0, vocab, size=int(t)) for t in lengths]


def pwl_tables(node):
    if isinstance(node, PwlTable):
        yield node
    elif is_dataclass(node):
        for f in fields(node):
            yield from pwl_tables(getattr(node, f.name))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stacks", type=int, default=80)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--counts", type=int, nargs="+", default=[512, 1024, 2048, 4096], help="each at least 17")
    args = parser.parse_args()
    counts = sorted(args.counts)

    rng = np.random.default_rng(args.seed)
    tables, skipped = [], 0
    for _ in range(args.stacks):
        model, batches = random_stack(rng)
        opts = dict(pieces=int(rng.integers(1, 17)), cell_bits=int(rng.choice([8, 16])), gate_bits=16)
        try:
            im = runtime.convert(model, runtime.calibrate(model, batches), **opts)
        except ValueError:
            skipped += 1
            continue
        tables += [t for layer in im.layers for t in pwl_tables(layer) if t.in_qp.bitwidth == 16]

    max_err, mean_err, ms = (np.zeros((len(counts), len(tables))) for _ in range(3))
    for j, t in enumerate(tables):
        lut = build_lut(ACTIVATIONS[t.fn_name], t.in_qp, t.out_qp)
        for i, n in enumerate(counts):
            t0 = time.perf_counter()
            built = build_pwl(t.fn_name, t.in_qp, t.out_qp, t.n_pieces, candidates=n)
            ms[i, j] = (time.perf_counter() - t0) * 1e3
            err = np.abs(built.grid_out.astype(np.int64) - lut)
            max_err[i, j], mean_err[i, j] = err.max(), err.mean()

    kinds = sorted({t.fn_name for t in tables})
    print(f"{len(tables)} tables ({', '.join(kinds)}), {skipped} of {args.stacks} stacks skipped")
    print(f"{'count':>6} {'med max':>8} {'mean max':>9} {'med mean':>9} {'mean mean':>10} {'worse':>6} {'better':>7} {'med ms':>7}")
    for i, n in enumerate(counts):
        worse, better = (int(np.sum(cmp(max_err[i], max_err[-1]))) for cmp in (np.greater, np.less))
        print(
            f"{n:>6} {np.median(max_err[i]):>8.1f} {max_err[i].mean():>9.2f} {np.median(mean_err[i]):>9.3f}"
            f" {mean_err[i].mean():>10.3f} {worse:>6} {better:>7} {np.median(ms[i]):>7.2f}"
        )


if __name__ == "__main__":
    main()
