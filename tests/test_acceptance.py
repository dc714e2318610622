"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import time
from contextlib import contextmanager

import numpy as np

from conftest import (
    attn_consts,
    bilstm_layer,
    calibrated_int_model,
    lanes_of,
    observe,
    random_cell,
    random_decoder,
    stored,
)
from qlstm import floatguard, runtime, serialize
from qlstm.attention import attention_int, attention_int_exact, attention_keys
from qlstm.cli import main
from qlstm.lstm import (
    LstmWeights,
    QuantLstmSpec,
    bilstm_sequence_exact,
    bilstm_sequence_int,
    lstm_apply_gates_int,
    lstm_gate_preacts_int,
    lstm_sequence_int,
    lstm_sequence_real,
    lstm_step_exact,
)
from qlstm.madnorm import MadNormQParams, MadNormRows, madnorm_int, madnorm_int_exact, madnorm_observe
from qlstm.pwl import build_lut, build_pwl, eval_pwl_int, eval_pwl_real, select_knots, sigmoid
from qlstm.quant import compute_qparams, dequantize


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL — {title}")
        raise
    print(f"criterion {num}: PASS — {title}")


def test_criterion_1_lut_equivalence():
    with criterion(1, "255-piece PWL equals the 256-entry LUT exactly"):
        start = time.perf_counter()
        out_qps = {"sigmoid": compute_qparams(0.0, 1.0, 8), "tanh": compute_qparams(-1.0, 1.0, 8)}
        fns = {"sigmoid": sigmoid, "tanh": np.tanh}
        qs = np.arange(256)
        for name in ("sigmoid", "tanh"):
            for in_qp in (compute_qparams(-8.0, 8.0, 8), compute_qparams(-4.0, 4.0, 8)):
                table = build_pwl(name, in_qp, out_qps[name], 255)
                lut = build_lut(fns[name], in_qp, out_qps[name])
                assert np.array_equal(eval_pwl_int(qs, table), lut)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_knot_selection_matches_reference():
    def reference(knots, intercepts, n_pieces):
        # independently written O(N^2) version: all slopes recomputed per round
        knots = np.asarray(knots, dtype=np.float64).copy()
        intercepts = np.asarray(intercepts, dtype=np.float64).copy()
        while True:
            slopes = np.diff(intercepts) / np.diff(knots)
            if len(slopes) == n_pieces:
                return knots, slopes, intercepts
            j = int(np.argmin(np.abs(slopes[:-1] - slopes[1:])))
            knots = np.delete(knots, j + 1)
            intercepts = np.delete(intercepts, j + 1)

    with criterion(2, "select_knots equals the O(N^2) reference on 100 random cases"):
        start = time.perf_counter()
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(3, 300))
            knots = np.cumsum(rng.uniform(0.05, 1.0, n))
            vals = rng.normal(0, 2.0, n)
            pieces = int(rng.integers(1, n))
            got = select_knots(knots, vals, pieces)
            want = reference(knots, vals, pieces)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        assert time.perf_counter() - start < 10.0


def test_criterion_3_pwl_error_monotone_in_pieces():
    with criterion(3, "tanh PWL max error non-increasing over pieces {4,8,16,32}"):
        in_qp = compute_qparams(-4.0, 4.0, 8)
        out_qp = compute_qparams(-1.0, 1.0, 8)
        grid = dequantize(np.arange(256), in_qp)
        truth = np.tanh(grid)
        errs = []
        for pieces in (4, 8, 16, 32):
            t = build_pwl("tanh", in_qp, out_qp, pieces)
            errs.append(float(np.max(np.abs(eval_pwl_real(grid, t) - truth))))
        assert all(errs[i + 1] <= errs[i] for i in range(3)), errs
        # exhaustive-oracle value pinned on first run: 0.015355
        assert errs[-1] <= 0.016


def test_criterion_4_mad_to_std_ratio():
    with criterion(4, "MAD/std ratio of 1e6 normal samples inside [0.788, 0.808]"):
        start = time.perf_counter()
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 1.0, 10**6)
        ratio = float(np.abs(x - x.mean()).mean() / x.std())
        assert 0.788 <= ratio <= 0.808
        assert time.perf_counter() - start < 5.0


def test_criterion_5_concentration_inequality():
    with criterion(5, "Pr(|X-mu|/sigma_mad < k) >= 1 - 1/k - 0.01 for k in {2,4,8}"):
        samplers = [
            lambda r, n: r.normal(0, 1, n),
            lambda r, n: r.uniform(0, 1, n),
            lambda r, n: r.exponential(1.0, n),
        ]
        n = 10**5
        for di, sample in enumerate(samplers):
            r = np.random.default_rng([5, di])
            x = sample(r, n)
            mu = x.mean()
            sigma_mad = np.abs(x - mu).mean()
            for k in (2, 4, 8):
                p = float(np.mean(np.abs(x - mu) / sigma_mad < k))
                assert p >= 1 - 1 / k - 0.01, (di, k, p)


def _madnorm_cases(rng, count):
    for i in range(count):
        hidden = int(rng.integers(2, 24))
        xs = rng.normal(0, 1.5, (6, hidden))
        ranges = {}

        def rec(name, v):
            v = np.asarray(v, dtype=np.float64)
            key = name.split(".")[-1]
            lo, hi = float(v.min()), float(v.max())
            ranges[key] = (
                min(ranges[key][0], lo) if key in ranges else lo,
                max(ranges[key][1], hi) if key in ranges else hi,
            )

        for x in xs:
            madnorm_observe(x, rec, "n")
        p = MadNormQParams.from_ranges(ranges, compute_qparams(float(xs.min()), float(xs.max()), 8), hidden)
        yield rng.integers(0, 256, hidden).astype(np.uint8), p


def test_criterion_6_bit_exactness_suite():
    with criterion(6, "integer paths bit-exact vs the fake-quant oracle (1000 configs each)"):
        rng = np.random.default_rng(6)

        for q_x, p in _madnorm_cases(rng, 1000):
            got = madnorm_int(q_x.astype(np.int64)[None], MadNormRows([p]))[0]
            assert np.array_equal(got, madnorm_int_exact(q_x, p))

        for k in range(1000):
            norm = k % 3 == 0
            m = int(rng.integers(2 if norm else 1, 5))
            n = int(rng.integers(1, 5))
            w = random_cell(rng, m, n)
            xs = rng.normal(0, 1, (3, n))
            ranges = observe(lstm_sequence_real, xs, w, norm=norm)
            spec = QuantLstmSpec.from_float(
                w, ranges, pieces=int(rng.integers(2, 10)),
                cell_bits=8 if k % 2 == 0 else 16, norm=norm,
            )
            q_x = rng.integers(0, 256, n).astype(np.uint8)
            q_h = rng.integers(0, 256, m).astype(np.uint8)
            q_c = rng.integers(0, spec.qp_c.qmax + 1, m).astype(spec.qp_c.storage_dtype)
            # one step of the fused kernels from an arbitrary state
            one = lanes_of(spec)
            pre = lstm_gate_preacts_int(q_x[None], q_h[None], one)
            h, c = lstm_apply_gates_int(pre, q_c[None], one)
            h_ref, c_ref = lstm_step_exact(q_x, q_h, q_c, spec)
            assert np.array_equal(h[0].astype(np.int64), h_ref)
            assert np.array_equal(c[0], c_ref)

        for k in range(1000):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            T = int(rng.integers(2, 5))
            wf, wb = random_cell(rng, m, n), random_cell(rng, m, n)
            xs = rng.normal(0, 1, (T, n))
            bi = bilstm_layer(wf, wb, xs, pieces=int(rng.integers(2, 8)), cell_bits=8 if k % 2 == 0 else 16)
            q_xs = stored(xs, bi.qp_in)
            got = bilstm_sequence_int(q_xs, lanes_of(bi.fwd, bi.bwd))
            assert np.array_equal(got.astype(np.int64), bilstm_sequence_exact(q_xs, bi.fwd, bi.bwd))

        for _ in range(1000):
            _, _, enc, h, spec = random_decoder(rng, pieces=8)
            q_h = stored(h, spec.cell.qp_h)
            q_enc = stored(enc, spec.cell.qp_x)
            a = attn_consts(spec)
            q_s, q_a = attention_int(q_h, attention_keys(q_enc, a), a)
            s_ref, a_ref = attention_int_exact(q_h, q_enc, spec)
            assert np.array_equal(q_s, s_ref)
            assert np.array_equal(q_a, a_ref)

        archs = (
            ["lstm", "lstm"],
            ["lstm_norm", "lstm"],
            ["bilstm", "lstm"],
            ["lstm", "lstm", "residual"],
            ["lstm", "attn"],
        )
        for k in range(1000):
            arch = archs[k % len(archs)]
            _, im = calibrated_int_model(
                rng, arch, pieces=int(rng.integers(2, 8)),
                cell_bits=8 if k % 2 == 0 else 16, T=4,
            )
            seq = rng.integers(0, 6, size=int(rng.integers(1, 5)))
            assert np.array_equal(
                runtime.run(im, seq).astype(np.int64), runtime.run_reference(im, seq)
            ), (k, arch)


def test_criterion_7_cell_state_bitwidth_fidelity():
    with criterion(7, "16-bit cell state tracks the real path at least as well as 8-bit (20 seeds)"):
        m = n = 200
        T = 32
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            w = LstmWeights(
                rng.uniform(-0.1, 0.1, (4 * m, n)),
                rng.uniform(-0.1, 0.1, (4 * m, m)),
                rng.uniform(-0.1, 0.1, 4 * m),
            )
            xs = rng.normal(0, 1, (T, n))
            ranges = observe(lstm_sequence_real, xs, w)
            real = lstm_sequence_real(xs, w)
            gaps = {}
            for cell_bits in (8, 16):
                spec = QuantLstmSpec.from_float(w, ranges, pieces=16, cell_bits=cell_bits)
                hs = lstm_sequence_int(stored(xs, spec.qp_x), lanes_of(spec))
                gaps[cell_bits] = float(np.abs(dequantize(hs, spec.qp_h) - real).mean())
            assert gaps[16] <= gaps[8], (seed, gaps)


def test_criterion_8_no_float_invariant():
    with criterion(8, "zero floating-point operations during an end-to-end integer run"):
        rng = np.random.default_rng(8)
        _, im = calibrated_int_model(rng, ["bilstm", "lstm_norm", "attn", "lstm", "residual"], T=6)
        seq = rng.integers(0, 6, size=6)
        with floatguard.trace_float_ops() as count:
            runtime.run(im, seq)
            assert count() == 0


def test_criterion_9_bench_harness(tmp_path, capsys):
    with criterion(9, "bench on an m=400 cell: 5 warmup + 100 iters, 3-config CSV"):
        m = n = 400
        rng = np.random.default_rng(9)
        model = runtime.FloatModel([runtime.LstmLayer(random_cell(rng, m, n, scale=0.05))])
        ranges = runtime.calibrate(model, [rng.normal(0, 1, (16, n))])
        im = runtime.convert(model, ranges, pieces=8)
        mpath = str(tmp_path / "m400.json")
        serialize.save(im, mpath)
        csv = tmp_path / "bench.csv"
        rc = main(
            ["bench", "--model", mpath, "--seq-len", "128", "--warmup", "5", "--iters", "100",
             "--csv", str(csv)]
        )
        capsys.readouterr()
        assert rc == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "config,mean_ms,peak_kb,iters_per_sec,speedup"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["float", "int_pwl", "int_float_act"]
        # speedup values are reported, never asserted: they are host-dependent
        # measurements, not portable guarantees
        for r in rows:
            assert all(float(v) > 0 for v in r[1:])
