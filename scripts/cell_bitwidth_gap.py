#!/usr/bin/env python3
"""Hidden-state fidelity of the integer cell vs cell-state bitwidth.

For a batch of random cells, measures the mean absolute gap between the
dequantized integer hidden states and the float reference, with the cell
state held at 8 or 16 bits.  The 16-bit cell consistently tracks the real
path at least as well, which is the reason to widen it when the cell-state
range is large.
"""
import argparse

import numpy as np

from qlstm.lstm import LstmWeights, QuantLstmSpec, lstm_sequence_real
from qlstm.runtime import CalibrationObserver, IntLstm, IntModel, run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hidden", type=int, default=200)
    parser.add_argument("--steps", type=int, default=32)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--pieces", type=int, default=16)
    args = parser.parse_args()

    m = n = args.hidden
    print(f"{'seed':>4} {'gap@8bit':>10} {'gap@16bit':>10}")
    gaps = {8: [], 16: []}
    for seed in range(args.seeds):
        rng = np.random.default_rng(seed)
        w = LstmWeights(
            rng.uniform(-0.1, 0.1, (4 * m, n)),
            rng.uniform(-0.1, 0.1, (4 * m, m)),
            rng.uniform(-0.1, 0.1, 4 * m),
        )
        xs = rng.normal(0, 1, (args.steps, n))
        obs = CalibrationObserver()
        real = lstm_sequence_real(xs, w, record=obs)
        ranges = obs.ranges
        row = {}
        for bits in (8, 16):
            spec = QuantLstmSpec.from_float(w, ranges, pieces=args.pieces, cell_bits=bits)
            hs = run(IntModel([IntLstm(spec)], spec.qp_x), xs)
            row[bits] = float(np.abs(hs.dequantize() - real).mean())
            gaps[bits].append(row[bits])
        print(f"{seed:>4} {row[8]:>10.6f} {row[16]:>10.6f}")
    print(f"mean {np.mean(gaps[8]):>10.6f} {np.mean(gaps[16]):>10.6f}")


if __name__ == "__main__":
    main()
