"""LSTM cells: real math, integer pipeline vs exact oracle, sequence layers."""
import numpy as np
import pytest

from conftest import observe, random_cell, random_lstm_config
from qlstm.lstm import (
    BiLstmSpec,
    LstmState,
    LstmWeights,
    QuantLstmSpec,
    bilstm_sequence_exact,
    bilstm_sequence_int,
    bilstm_sequence_real,
    lstm_sequence_exact,
    lstm_sequence_int,
    lstm_sequence_real,
    lstm_step_exact,
    lstm_step_int,
    lstm_step_real,
    madnorm_lstm_step_real,
)
from qlstm.quant import QuantTensor, dequantize, quantize


def scalar_reference_step(x, state, w):
    """Element-by-element recomputation of the cell equations."""
    m = w.hidden_size
    pre = [
        sum(w.w_x[r, k] * x[k] for k in range(w.input_size))
        + sum(w.w_h[r, k] * state.h[k] for k in range(m))
        + w.bias[r]
        for r in range(4 * m)
    ]
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    h, c = np.zeros(m), np.zeros(m)
    for k in range(m):
        i, f, j, o = pre[k], pre[m + k], pre[2 * m + k], pre[3 * m + k]
        c[k] = sig(f) * state.c[k] + sig(i) * np.tanh(j)
        h[k] = sig(o) * np.tanh(c[k])
    return LstmState(h, c)


def fakequant_step(x_t, state, spec):
    """Real values in and out, the exact oracle inside: quantizing the result
    must reproduce the integer engine's state bit-exactly."""
    q = [np.asarray(quantize(v, qp)) for v, qp in ((x_t, spec.qp_x), (state.h, spec.qp_h), (state.c, spec.qp_c))]
    h_new, c_new = lstm_step_exact(*q, spec)
    return LstmState(dequantize(h_new, spec.qp_h), dequantize(c_new, spec.qp_c))


class TestRealStep:
    def test_zero_everything(self):
        w = LstmWeights(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
        out = lstm_step_real(np.array([1.0, -2.0, 0.5]), LstmState.zeros(2), w)
        assert np.array_equal(out.h, np.zeros(2)) and np.array_equal(out.c, np.zeros(2))

    def test_zero_weights_unit_cell_state(self):
        w = LstmWeights(np.zeros((4, 1)), np.zeros((4, 1)), np.zeros(4))
        out = lstm_step_real(np.array([3.0]), LstmState(np.zeros(1), np.ones(1)), w)
        assert out.c[0] == pytest.approx(0.5)
        assert out.h[0] == pytest.approx(0.5 * np.tanh(0.5))

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        w = random_cell(rng, 2, 2)
        state = LstmState(rng.normal(0, 1, 2), rng.normal(0, 1, 2))
        x = rng.normal(0, 1, 2)
        got = lstm_step_real(x, state, w)
        want = scalar_reference_step(x, state, w)
        assert np.allclose(got.h, want.h, atol=1e-12)
        assert np.allclose(got.c, want.c, atol=1e-12)

    def test_cell_state_growth_bound(self):
        # |c_t| <= |c_{t-1}| + 1 since sigmoid in (0,1) and |tanh| < 1
        rng = np.random.default_rng(1)
        w = random_cell(rng, 3, 3, scale=1.5)
        state = LstmState.zeros(3)
        for t in range(100):
            prev = np.abs(state.c)
            state = lstm_step_real(rng.normal(0, 2, 3), state, w)
            assert np.all(np.abs(state.c) <= prev + 1.0 + 1e-12)


class TestIntStep:
    def test_zero_point_inputs_land_on_zero_points(self):
        rng = np.random.default_rng(2)
        w = LstmWeights(rng.normal(0, 0.4, (12, 2)), rng.normal(0, 0.4, (12, 3)), np.zeros(12))
        ranges = observe(lstm_sequence_real, rng.normal(0, 1, (4, 2)), w)
        spec = QuantLstmSpec.from_float(w, ranges, pieces=255)
        state = spec.zero_state()
        out = lstm_step_int(QuantTensor.zeros(2, spec.qp_x), state, spec)
        assert np.all(out.h.data == spec.qp_h.zero_point)
        assert np.all(out.c.data == spec.qp_c.zero_point)

    def test_thousand_steps_bit_exact_vs_fakequant(self):
        rng = np.random.default_rng(3)
        w, _, spec = random_lstm_config(rng, m=4, n=3, T=8, pieces=10)
        xs = rng.normal(0, 1, (1000, 3))
        state_r = LstmState.zeros(4)
        state_q = spec.zero_state()
        for t in range(1000):
            q_x = QuantTensor.from_real(xs[t], spec.qp_x)
            state_r = fakequant_step(xs[t], state_r, spec)
            state_q = lstm_step_int(q_x, state_q, spec)
            assert np.array_equal(
                np.asarray(quantize(state_r.h, spec.qp_h)), state_q.h.data.astype(np.int64)
            )
            assert np.array_equal(
                np.asarray(quantize(state_r.c, spec.qp_c)), state_q.c.data.astype(np.int64)
            )

    def test_fakequant_cross_check_m8(self):
        rng = np.random.default_rng(30)
        _, _, spec = random_lstm_config(rng, m=8, n=4, T=8, pieces=8)
        xs = rng.normal(0, 1, (1000, 4))
        state_r = LstmState.zeros(8)
        q_h = np.full(8, spec.qp_h.zero_point, dtype=np.int64)
        q_c = np.full(8, spec.qp_c.zero_point, dtype=np.int64)
        for t in range(1000):
            state_r = fakequant_step(xs[t], state_r, spec)
            q_h, q_c = lstm_step_exact(np.asarray(quantize(xs[t], spec.qp_x)), q_h, q_c, spec)
            assert np.array_equal(np.asarray(quantize(state_r.h, spec.qp_h)), q_h)

    def test_fakequant_zero_input(self):
        rng = np.random.default_rng(4)
        w = LstmWeights(rng.normal(0, 0.4, (8, 2)), rng.normal(0, 0.4, (8, 2)), np.zeros(8))
        ranges = observe(lstm_sequence_real, rng.normal(0, 1, (4, 2)), w)
        spec = QuantLstmSpec.from_float(w, ranges, pieces=255)
        out = fakequant_step(np.zeros(2), LstmState.zeros(2), spec)
        assert np.array_equal(np.asarray(quantize(out.h, spec.qp_h)), [spec.qp_h.zero_point] * 2)

    def test_large_cell_close_to_real_path(self):
        # pinned regression: mean |dequantized h - real h| for a 200-unit cell
        rng = np.random.default_rng(7)
        m = n = 200
        w = LstmWeights(
            rng.uniform(-0.1, 0.1, (4 * m, n)),
            rng.uniform(-0.1, 0.1, (4 * m, m)),
            rng.uniform(-0.1, 0.1, 4 * m),
        )
        xs = rng.normal(0, 1, (32, n))
        ranges = observe(lstm_sequence_real, xs, w)
        spec = QuantLstmSpec.from_float(w, ranges, pieces=16, cell_bits=16)
        hs = lstm_sequence_int(QuantTensor.from_real(xs, spec.qp_x), spec)
        gap = np.abs(hs.dequantize() - lstm_sequence_real(xs, w)).mean()
        assert gap < 0.005  # first-run value 0.00380

    def test_state_stays_in_storage_range(self):
        rng = np.random.default_rng(8)
        w, _, spec = random_lstm_config(rng, m=3, n=3, T=6, cell_bits=16)
        xs = rng.normal(0, 25, (50, 3))  # far outside the calibrated range
        state = spec.zero_state()
        for x in xs:
            state = lstm_step_int(QuantTensor.from_real(x, spec.qp_x), state, spec)
            assert 0 <= state.h.data.min() and state.h.data.max() <= 255
            assert 0 <= state.c.data.min() and state.c.data.max() <= 65535

    def test_rejects_mismatched_input(self):
        rng = np.random.default_rng(9)
        _, _, spec = random_lstm_config(rng)
        from qlstm.quant import compute_qparams

        bad = QuantTensor.zeros(spec.input_size, compute_qparams(-7.0, 7.0, 8))
        with pytest.raises(ValueError):
            lstm_step_int(bad, spec.zero_state(), spec)


class TestMadNormVariant:
    def test_constant_preactivations_behave_like_zero_weights(self):
        # rows all equal -> matmul results constant -> MadNorm zeroes them
        m, n = 3, 2
        w_const = LstmWeights(np.ones((4 * m, n)), np.full((4 * m, m), 0.5), np.full(4 * m, 0.2))
        w_zero = LstmWeights(np.zeros((4 * m, n)), np.zeros((4 * m, m)), np.zeros(4 * m))
        rng = np.random.default_rng(10)
        state_a, state_b = LstmState.zeros(m), LstmState.zeros(m)
        for t in range(5):
            x = rng.normal(0, 1, n)
            state_a = madnorm_lstm_step_real(x, state_a, w_const)
            state_b = lstm_step_real(x, state_b, w_zero)
            assert np.allclose(state_a.h, state_b.h) and np.allclose(state_a.c, state_b.c)

    def test_int_bit_exact_500_steps(self):
        rng = np.random.default_rng(11)
        w, _, spec = random_lstm_config(rng, norm=True, m=8, n=4, T=10, pieces=12)
        xs = rng.normal(0, 1, (500, 4))
        q_xs = QuantTensor.from_real(xs, spec.qp_x)
        got = lstm_sequence_int(q_xs, spec)
        want = lstm_sequence_exact(q_xs.data, spec)
        assert np.array_equal(got.data.astype(np.int64), want)

    def test_forward_stability_smoke(self):
        rng = np.random.default_rng(12)
        w = random_cell(rng, 6, 4, scale=0.8)
        hs = lstm_sequence_real(rng.normal(0, 1, (200, 4)), w, norm=True)
        assert np.all(np.isfinite(hs))
        assert np.max(np.abs(hs)) <= 1.0  # h = sigmoid * tanh stays inside (-1, 1)


class TestSequences:
    def test_length_one_equals_single_step(self):
        rng = np.random.default_rng(13)
        w = random_cell(rng, 3, 2)
        x = rng.normal(0, 1, (1, 2))
        hs = lstm_sequence_real(x, w)
        step = lstm_step_real(x[0], LstmState.zeros(3), w)
        assert np.array_equal(hs[0], step.h)

    def test_three_steps_equal_manual_composition(self):
        rng = np.random.default_rng(14)
        w = random_cell(rng, 3, 2)
        xs = rng.normal(0, 1, (3, 2))
        hs = lstm_sequence_real(xs, w)
        state = LstmState.zeros(3)
        for t in range(3):
            state = lstm_step_real(xs[t], state, w)
            assert np.array_equal(hs[t], state.h)

    def test_backward_is_forward_on_reversed_input(self):
        rng = np.random.default_rng(15)
        w = random_cell(rng, 3, 2)
        xs = rng.normal(0, 1, (5, 2))
        bwd = lstm_sequence_real(xs, w, direction="backward")
        fwd_rev = lstm_sequence_real(xs[::-1], w, direction="forward")
        assert np.allclose(bwd, fwd_rev[::-1])

    def test_palindrome_input_symmetry(self):
        rng = np.random.default_rng(16)
        w = random_cell(rng, 2, 2)
        half = rng.normal(0, 1, (3, 2))
        xs = np.concatenate([half, half[::-1]])  # palindromic sequence
        fwd = lstm_sequence_real(xs, w)
        bwd = lstm_sequence_real(xs, w, direction="backward")
        assert np.allclose(bwd[::-1], fwd)

    def test_int_sequence_directions_bit_exact(self):
        rng = np.random.default_rng(17)
        _, xs, spec = random_lstm_config(rng, m=3, n=3, T=6)
        q_xs = QuantTensor.from_real(xs, spec.qp_x)
        for direction in ("forward", "backward"):
            got = lstm_sequence_int(q_xs, spec, direction)
            want = lstm_sequence_exact(q_xs.data, spec, direction)
            assert np.array_equal(got.data.astype(np.int64), want)


class TestBiLstm:
    def _bispec(self, rng, m=3, n=2, T=6):
        wf, wb = random_cell(rng, m, n), random_cell(rng, m, n)
        xs = rng.normal(0, 1, (T, n))
        rf = observe(lstm_sequence_real, xs, wf)
        rb = observe(lstm_sequence_real, xs, wb, "backward")  # backward pass sees reversed time
        spec = BiLstmSpec.from_float(wf, wb, rf, rb, pieces=8)
        return wf, wb, xs, spec

    def test_identical_cells_on_constant_input(self):
        # constant input reversed is itself, so the backward half is the
        # forward half mirrored in time; at the middle step both halves agree
        rng = np.random.default_rng(18)
        w = random_cell(rng, 3, 2)
        xs = np.tile(rng.normal(0, 1, 2), (5, 1))
        out = bilstm_sequence_real(xs, w, w)
        assert np.allclose(out[:, 3:], out[::-1, :3])
        assert np.allclose(out[2, :3], out[2, 3:])

    def test_shared_qparams_violation_rejected(self):
        rng = np.random.default_rng(19)
        w1, xs1, spec1 = random_lstm_config(rng, m=3, n=2, T=5)
        w2, xs2, spec2 = random_lstm_config(rng, m=3, n=2, T=5)
        with pytest.raises(ValueError):
            BiLstmSpec(spec1, spec2)

    def test_bit_exact_vs_oracle(self):
        rng = np.random.default_rng(20)
        wf, wb, xs, spec = self._bispec(rng)
        q_xs = QuantTensor.from_real(xs, spec.fwd.qp_x)
        got = bilstm_sequence_int(q_xs, spec)
        want = bilstm_sequence_exact(q_xs.data, spec)
        assert np.array_equal(got.data.astype(np.int64), want)
        assert got.shape == (6, 6)
