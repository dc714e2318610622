"""LSTM cells: real math, integer pipeline vs exact oracle, sequence layers."""
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    bilstm_layer,
    calibrated_int_model,
    decoder_parts,
    lanes_of,
    observe,
    random_cell,
    random_lstm_config,
    stored,
    with_gate_sum_grid,
)
from perfbench.spans import Recorder, instrument
from qlstm import lstm as L
from qlstm import runtime
from qlstm.attention import AttentionWeights, attn_decoder_sequence_exact, attn_decoder_sequence_int
from qlstm.lstm import (
    LstmState,
    LstmWeights,
    QuantLstmSpec,
    bilstm_sequence_exact,
    bilstm_sequence_int,
    bilstm_sequence_real,
    lstm_apply_gates_int,
    lstm_gate_preacts_int,
    lstm_sequence_exact,
    lstm_sequence_int,
    lstm_sequence_real,
    lstm_step_exact,
    lstm_step_real,
)
from qlstm.quant import ScaledMultiplier, compute_qparams, dequantize, quantize


def int_step(q_x, h, c, one):
    """One integer step of the cell that is the one lane of ``one`` from the
    raw state ``(h, c)``, through the fused kernels; returns the raw ``(h, c)``."""
    pre = lstm_gate_preacts_int(np.asarray(q_x)[None], np.asarray(h)[None], one)
    h, c = lstm_apply_gates_int(pre, np.asarray(c)[None], one)
    return h[0], c[0]


def initial_state(one):
    """The raw ``(h, c)`` of the one lane of ``one`` at real 0."""
    h, c = one.initial_state()
    return h[0], c[0]


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
        one = lanes_of(spec)
        h, c = int_step(np.full(2, spec.qp_x.zero_point, dtype=np.uint8), *initial_state(one), one)
        assert np.all(h == spec.qp_h.zero_point)
        assert np.all(c == spec.qp_c.zero_point)

    def test_thousand_steps_bit_exact_vs_fakequant(self):
        rng = np.random.default_rng(3)
        w, _, spec = random_lstm_config(rng, m=4, n=3, T=8, pieces=10)
        xs = rng.normal(0, 1, (1000, 3))
        state_r = LstmState.zeros(4)
        one = lanes_of(spec)
        h, c = initial_state(one)
        for t in range(1000):
            q_x = stored(xs[t], spec.qp_x)
            state_r = fakequant_step(xs[t], state_r, spec)
            h, c = int_step(q_x, h, c, one)
            assert np.array_equal(np.asarray(quantize(state_r.h, spec.qp_h)), h.astype(np.int64))
            assert np.array_equal(np.asarray(quantize(state_r.c, spec.qp_c)), c)

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
        hs = lstm_sequence_int(stored(xs, spec.qp_x), lanes_of(spec))
        gap = np.abs(dequantize(hs, spec.qp_h) - lstm_sequence_real(xs, w)).mean()
        assert gap < 0.005  # first-run value 0.00380

    def test_state_stays_in_storage_range(self):
        rng = np.random.default_rng(8)
        w, _, spec = random_lstm_config(rng, m=3, n=3, T=6, cell_bits=16)
        xs = rng.normal(0, 25, (50, 3))  # far outside the calibrated range
        one = lanes_of(spec)
        h, c = initial_state(one)
        for x in xs:
            h, c = int_step(stored(x, spec.qp_x), h, c, one)
            assert 0 <= h.min() and h.max() <= 255
            assert 0 <= c.min() and c.max() <= 65535

    def test_rejects_mismatched_input(self):
        """The cell's input grid is checked once, when its model is built."""
        rng = np.random.default_rng(9)
        _, _, spec = random_lstm_config(rng)
        with pytest.raises(ValueError, match="qparams chain broken at layer 0$"):
            runtime.IntModel([runtime.IntLstm(spec)], compute_qparams(-7.0, 7.0, 8))


@pytest.mark.parametrize(
    "name, shape",
    [("w_h_q", (12, 2)), ("w_h_q", (12, 4)), ("w_x_q", (12, 2, 1)), ("w_x_q", (10, 2)), ("bias_q", (6,))],
)
def test_cell_weight_shapes_must_agree(name, shape):
    """A recurrent matrix narrower than the hidden state used to build and
    run, ignoring the last hidden units, while the oracle failed."""
    _, _, spec = random_lstm_config(np.random.default_rng(24), m=3, n=2)
    with pytest.raises(ValueError, match="inconsistent LSTM weight shapes"):
        replace(spec, **{name: np.zeros(shape, dtype=getattr(spec, name).dtype)})


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
            state_a = lstm_step_real(x, state_a, w_const, norm=True)
            state_b = lstm_step_real(x, state_b, w_zero)
            assert np.allclose(state_a.h, state_b.h) and np.allclose(state_a.c, state_b.c)

    def test_int_bit_exact_500_steps(self):
        rng = np.random.default_rng(11)
        w, _, spec = random_lstm_config(rng, norm=True, m=8, n=4, T=10, pieces=12)
        xs = rng.normal(0, 1, (500, 4))
        q_xs = stored(xs, spec.qp_x)
        got = lstm_sequence_int(q_xs, lanes_of(spec))
        want = lstm_sequence_exact(q_xs, spec)
        assert np.array_equal(got.astype(np.int64), want)

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
        wf, wb = random_cell(rng, 3, 2), random_cell(rng, 3, 2)
        xs = rng.normal(0, 1, (5, 2))
        out = bilstm_sequence_real(xs, wf, wb)
        assert np.array_equal(out[:, :3], lstm_sequence_real(xs, wf))
        assert np.array_equal(out[:, 3:], lstm_sequence_real(xs[::-1], wb)[::-1])

    def test_palindrome_input_symmetry(self):
        rng = np.random.default_rng(16)
        w = random_cell(rng, 2, 2)
        half = rng.normal(0, 1, (3, 2))
        xs = np.concatenate([half, half[::-1]])  # palindromic sequence
        out = bilstm_sequence_real(xs, w, w)
        assert np.array_equal(out[::-1, 2:], out[:, :2])

    def test_int_sequence_directions_bit_exact(self):
        rng = np.random.default_rng(17)
        _, xs, spec = random_lstm_config(rng, m=3, n=3, T=6)
        q_xs = stored(xs, spec.qp_x)
        fwd = lstm_sequence_exact(q_xs, spec)
        assert np.array_equal(lstm_sequence_int(q_xs, lanes_of(spec)).astype(np.int64), fwd)
        # the backward direction is the forward step over the reversed frames in the oracle too
        both = bilstm_sequence_exact(q_xs, spec, spec)
        assert np.array_equal(both, np.concatenate([fwd, lstm_sequence_exact(q_xs[::-1], spec)[::-1]], axis=1))
        assert np.array_equal(bilstm_sequence_int(q_xs, lanes_of(spec, spec)), both)


class TestBiLstm:
    def _bilstm(self, rng, m=3, n=2, T=6):
        wf, wb = random_cell(rng, m, n), random_cell(rng, m, n)
        xs = rng.normal(0, 1, (T, n))
        return wf, wb, xs, bilstm_layer(wf, wb, xs, pieces=8)

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
            runtime.IntBiLstm(spec1, spec2)

    def test_bit_exact_vs_oracle(self):
        rng = np.random.default_rng(20)
        wf, wb, xs, bi = self._bilstm(rng)
        q_xs = stored(xs, bi.qp_in)
        got = bilstm_sequence_int(q_xs, lanes_of(bi.fwd, bi.bwd))
        want = bilstm_sequence_exact(q_xs, bi.fwd, bi.bwd)
        assert np.array_equal(got.astype(np.int64), want)
        assert got.shape == (6, 6)

    def test_unequal_direction_widths_run_equals_reference(self):
        """Forward m=3 and backward m=5: the narrower lane is padded inside
        the kernel, and only each lane's own units reach the output."""
        rng = np.random.default_rng(21)
        layer = runtime.BiLstmLayer(random_cell(rng, 3, 4), random_cell(rng, 5, 4))
        model = runtime.FloatModel([layer, runtime.FinalProjectionLayer(rng.normal(0, 0.5, (4, 8)), np.zeros(4))])
        im = runtime.convert(model, runtime.calibrate(model, [rng.normal(0, 1, (7, 4))]), pieces=6, cell_bits=16)
        bi = im.layers[0]
        for T in (1, 9):
            xs = rng.normal(0, 1, (T, 4))
            assert np.array_equal(runtime.run(im, xs), runtime.run_reference(im, xs))
            q_xs = stored(xs, bi.qp_in)
            got = bilstm_sequence_int(q_xs, lanes_of(bi.fwd, bi.bwd))
            assert got.shape == (T, 8)
            assert np.array_equal(got.astype(np.int64), bilstm_sequence_exact(q_xs, bi.fwd, bi.bwd))

    def test_madnorm_lanes_of_unequal_width_rejected(self):
        rng = np.random.default_rng(22)
        _, _, f = random_lstm_config(rng, norm=True, m=3, n=2)
        _, _, b = random_lstm_config(rng, norm=True, m=4, n=2)
        b = replace(b, qp_x=f.qp_x, qp_h=f.qp_h)
        with pytest.raises(ValueError, match="layer 0: MadNorm lanes must share the hidden width"):
            runtime.IntModel([runtime.IntBiLstm(f, b)], f.qp_x)

    def test_one_kernel_call_per_time_step(self, monkeypatch):
        """Both directions advance in one preacts call, with one batched
        matmul for the inputs and one for the hidden states."""
        rng = np.random.default_rng(23)
        _, _, xs, bi = self._bilstm(rng, T=7)
        calls = {"preacts": 0, "matmul": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(L, "lstm_gate_preacts_int", counted("preacts", L.lstm_gate_preacts_int))
        monkeypatch.setattr(L, "int_matmul", counted("matmul", L.int_matmul))
        bilstm_sequence_int(stored(xs, bi.qp_in), lanes_of(bi.fwd, bi.bwd))
        assert calls == {"preacts": 7, "matmul": 14}


def edge_model(rng, kind: str, n: int = 3, m: int = 3) -> runtime.FloatModel:
    """A feature-input model: one recurrent layer of ``kind`` and a projection."""
    cell = random_cell(rng, m, n)
    if kind == "bilstm":
        layer, width = runtime.BiLstmLayer(cell, random_cell(rng, m, n)), 2 * m
    elif kind == "decoder":
        attn = AttentionWeights(
            rng.normal(0, 0.5, (m, m)), rng.normal(0, 0.5, (m, n)), rng.normal(0, 0.5, m), rng.normal(0, 0.5, (4 * m, n))
        )
        layer, width = runtime.AttentionDecoderLayer(cell, attn), m
    else:
        layer, width = runtime.LstmLayer(cell, norm=kind == "madnorm_lstm"), m
    proj = runtime.FinalProjectionLayer(rng.normal(0, 0.5, (4, width)), rng.normal(0, 0.1, 4))
    return runtime.FloatModel([layer, proj])


class TestFusedKernelEdges:
    @given(
        kind=st.sampled_from(["lstm", "madnorm_lstm", "bilstm", "decoder"]),
        cell_bits=st.sampled_from([8, 16]),
        gate_bits=st.sampled_from([8, 16]),
        T=st.integers(1, 40),
        inputs=st.sampled_from(["random", "zero", "qmax", "both"]),
        seed=st.integers(0, 2**16),
    )
    def test_run_equals_oracle(self, kind, cell_bits, gate_bits, T, inputs, seed):
        rng = np.random.default_rng(seed)
        model = edge_model(rng, kind)
        ranges = runtime.calibrate(model, [rng.normal(0, 1, (6, 3))])
        im = runtime.convert(model, ranges, pieces=6, cell_bits=cell_bits, gate_bits=gate_bits)
        # +-1e3 lies far outside the calibrated range: those inputs quantize to 0 or qmax
        xs = {
            "random": rng.normal(0, 1, (T, 3)),
            "zero": np.full((T, 3), -1e3),
            "qmax": np.full((T, 3), 1e3),
            "both": rng.choice([-1e3, 1e3], size=(T, 3)),
        }[inputs]
        q = stored(xs, im.input_qp)
        assert inputs == "random" or np.all((q == 0) | (q == 255))
        assert np.array_equal(runtime.run(im, xs), runtime.run_reference(im, xs))

    @pytest.mark.parametrize("norm", [False, True])
    def test_stage_shift_of_63_or_more_rounds_bit_exactly(self, norm):
        rng = np.random.default_rng(40)
        _, xs, spec = random_lstm_config(rng, m=3, n=3, T=6, norm=norm)
        qp_mx = compute_qparams(-1e12, 1e12, 8)
        # MadNorm's input grid follows the stage it normalizes
        norm_x = replace(spec.norm_x, qp_x=qp_mx) if norm else None
        spec = replace(spec, qp_mx=qp_mx, norm_x=norm_x)
        assert spec.m_mx.shift >= 63
        q_xs = stored(xs, spec.qp_x)
        assert np.array_equal(lstm_sequence_int(q_xs, lanes_of(spec)), lstm_sequence_exact(q_xs, spec))

    @pytest.mark.parametrize("gate_bits", [8, 16])
    def test_stage_shift_of_0_or_less_rounds_bit_exactly(self, gate_bits):
        rng = np.random.default_rng(41)
        _, xs, spec = random_lstm_config(rng, m=3, n=3, T=6, gate_bits=gate_bits)
        tiny = compute_qparams(-1e-12, 1e-12, gate_bits)
        spec = with_gate_sum_grid(spec, tiny)
        assert spec.m_x2sig.shift <= 0 and spec.m_h2j.shift <= 0
        q_xs = stored(xs, spec.qp_x)
        assert np.array_equal(lstm_sequence_int(q_xs, lanes_of(spec)), lstm_sequence_exact(q_xs, spec))

    def test_stage_shift_past_int64_rejected_with_its_stage(self):
        """At +-1e-20 the gate-sum multipliers reach shift -37, and their
        product folded into a left shift would leave int64 where the oracle
        saturates: building the cell names the stage instead."""
        rng = np.random.default_rng(41)
        _, xs, spec = random_lstm_config(rng, m=3, n=3, T=6)
        tiny = compute_qparams(-1e-20, 1e-20, 8)
        assert ScaledMultiplier.from_real(spec.qp_mx.scale / tiny.scale).shift == -37
        with pytest.raises(ValueError, match="stage 'pre_sig'"):
            replace(spec, qp_pre_sig=tiny, qp_pre_j=tiny)
        with pytest.raises(ValueError, match="stage 'pre_j'"):
            replace(spec, qp_pre_j=tiny)

    @pytest.mark.parametrize("lane", [0, 1])
    @pytest.mark.parametrize("edge", ["shift63", "shift0"])
    def test_bilstm_one_lane_at_a_shift_edge(self, edge, lane):
        """One lane's stage multipliers sit at a shift edge (>= 63, or <= 0)
        and the other lane's do not."""
        rng = np.random.default_rng(42)
        wf, wb = random_cell(rng, 3, 3), random_cell(rng, 3, 3)
        xs = rng.normal(0, 1, (6, 3))
        bi = bilstm_layer(wf, wb, xs, pieces=6)
        cells = [bi.fwd, bi.bwd]
        if edge == "shift63":
            cells[lane] = replace(cells[lane], qp_mx=compute_qparams(-1e12, 1e12, 8))
            assert cells[lane].m_mx.shift >= 63 and cells[1 - lane].m_mx.shift < 63
        else:
            tiny = compute_qparams(-1e-12, 1e-12, 8)
            cells[lane] = with_gate_sum_grid(cells[lane], tiny)
            assert cells[lane].m_x2sig.shift <= 0 and cells[lane].m_h2j.shift <= 0
            assert cells[1 - lane].m_x2sig.shift > 0
        q_xs = stored(rng.normal(0, 1, (9, 3)), bi.qp_in)
        assert np.array_equal(bilstm_sequence_int(q_xs, lanes_of(*cells)), bilstm_sequence_exact(q_xs, *cells))

    def test_bilstm_lanes_with_gate_tables_of_different_lengths(self):
        """An 8-bit gate grid on one lane and a 16-bit one on the other:
        the lanes' tables differ in length, so each lane gathers at its own
        offsets."""
        rng = np.random.default_rng(43)
        wf, wb = random_cell(rng, 3, 2), random_cell(rng, 4, 2)
        xs = rng.normal(0, 1, (6, 2))
        rf, rb = observe(lstm_sequence_real, xs, wf), observe(lstm_sequence_real, xs[::-1], wb)
        qp_x = compute_qparams(float(xs.min()), float(xs.max()), 8)
        qp_h = compute_qparams(min(rf["h"][0], rb["h"][0]), max(rf["h"][1], rb["h"][1]), 8)
        common = dict(qp_x=qp_x, qp_h=qp_h, pieces=6)
        fwd = QuantLstmSpec.from_float(wf, rf, gate_bits=8, **common)
        bwd = QuantLstmSpec.from_float(wb, rb, gate_bits=16, cell_bits=16, **common)
        both = lanes_of(fwd, bwd)
        assert len(both.gate_table) == 2 * 256 + 2 * 65536
        assert len(both.tanh_c_table) == 256 + 65536
        for T in (1, 11):
            q_xs = stored(rng.normal(0, 2, (T, 2)), qp_x)
            assert np.array_equal(bilstm_sequence_int(q_xs, both), bilstm_sequence_exact(q_xs, fwd, bwd))

    def test_bilstm_single_frame_both_lanes_read_it(self):
        rng = np.random.default_rng(44)
        wf, wb = random_cell(rng, 3, 2), random_cell(rng, 3, 2)
        xs = rng.normal(0, 1, (6, 2))
        bi = bilstm_layer(wf, wb, xs, pieces=6)
        q_x = stored(xs[:1], bi.qp_in)
        got = bilstm_sequence_int(q_x, lanes_of(bi.fwd, bi.bwd))
        assert np.array_equal(got, bilstm_sequence_exact(q_x, bi.fwd, bi.bwd))
        alone = [lanes_of(bi.fwd), lanes_of(bi.bwd)]
        one = [int_step(q_x[0], *initial_state(lanes), lanes)[0] for lanes in alone]
        assert np.array_equal(got[0], np.concatenate(one))


def saturating_cell(rng, m, n):
    """Random weights whose input, forget and candidate biases drive the
    cell state up, past any range calibrated on a few steps."""
    w = random_cell(rng, m, n, scale=0.5)
    return LstmWeights(w.w_x, w.w_h, np.repeat([4.0, 4.0, 1.0, 0.0], m))


def assert_cell_saturates(spec, q_xs):
    """The integer cell state reaches the top of its grid within the run."""
    one = lanes_of(spec)
    h, c = initial_state(one)
    for q_x in q_xs[:200]:
        h, c = int_step(q_x, h, c, one)
        if c.max() == spec.qp_c.qmax:
            return
    raise AssertionError("cell state never saturated")


class TestLongRuns:
    """About 2,000 steps in which the cell state reaches the top of its grid."""

    T = 2000

    @pytest.mark.parametrize("cell_bits", [8, 16])
    def test_bilstm(self, cell_bits):
        rng = np.random.default_rng(60)
        layer = runtime.BiLstmLayer(saturating_cell(rng, 3, 3), saturating_cell(rng, 2, 3))
        model = runtime.FloatModel([layer, runtime.FinalProjectionLayer(rng.normal(0, 0.5, (4, 5)), np.zeros(4))])
        im = runtime.convert(model, runtime.calibrate(model, [rng.normal(0, 1, (6, 3))]), pieces=6, cell_bits=cell_bits)
        xs = rng.normal(0, 1, (self.T, 3))
        assert_cell_saturates(im.layers[0].fwd, stored(xs, im.input_qp))
        assert np.array_equal(runtime.run(im, xs), runtime.run_reference(im, xs))

    def test_seq2seq_shaped(self):
        """LSTM -> MadNorm-LSTM over the whole run, then the attention
        decoder over the same 2,000 steps attending to the first 16 encoder
        states (attending to all of them would make the oracle quadratic)."""
        rng = np.random.default_rng(61)
        m = 3
        attn = AttentionWeights(
            rng.normal(0, 0.5, (m, m)), rng.normal(0, 0.5, (m, m)), rng.normal(0, 0.5, m), rng.normal(0, 0.5, (4 * m, m))
        )
        model = runtime.FloatModel(
            [
                runtime.LstmLayer(saturating_cell(rng, m, 3)),
                runtime.LstmLayer(saturating_cell(rng, m, m), norm=True),
                runtime.AttentionDecoderLayer(saturating_cell(rng, m, m), attn),
            ]
        )
        im = runtime.convert(model, runtime.calibrate(model, [rng.normal(0, 1, (6, 3))]), pieces=6)
        q = stored(rng.normal(0, 1, (self.T, 3)), im.input_qp)
        assert_cell_saturates(im.layers[0].spec, q)
        for layer, part in zip(im.layers[:2], im.engine):
            got = layer.run(q, [], part)
            want = layer.run_exact(q.astype(np.int64), [])
            assert np.array_equal(got.astype(np.int64), want)
            q = got
        dec, enc = im.layers[2].spec, q[:16]
        got = attn_decoder_sequence_int(q, enc, *decoder_parts(dec))
        assert np.array_equal(got.astype(np.int64), attn_decoder_sequence_exact(q, enc, dec))


def rescale_spans(im, seq) -> Counter:
    """``(span, enclosing span)`` counts of the rescale ops over one run."""
    rec = Recorder()
    with instrument(rec):
        runtime.run(im, seq)
    spans = rec.spans
    return Counter(
        (s.name, spans[s.parent].name) for s in spans if s.name in ("quant.requantize", "quant.rescale_add")
    )


def test_rescale_spans_sit_inside_the_lstm_kernels():
    """The fused step applies its stages through the module-global ops, so
    the benchmark's spans time them inside the kernel that runs them.  With
    a 16-bit cell, per step: one requantize (mx|mh) and one rescale-add
    (gate sums) in the preactivations, two requantizes (products, h) and one
    rescale-add (c) in the gates, both BiLSTM directions in one call.  With
    an 8-bit cell the gates' stages are pair-table gathers, so the gates
    apply no rescale op."""
    rng = np.random.default_rng(31)
    seq = rng.integers(0, 6, size=7)
    _, im16 = calibrated_int_model(rng, ["bilstm"], cell_bits=16)
    assert rescale_spans(im16, seq) == {
        ("quant.requantize", "lstm.preacts"): 7,
        ("quant.rescale_add", "lstm.preacts"): 7,
        ("quant.requantize", "lstm.gates"): 14,
        ("quant.rescale_add", "lstm.gates"): 7,
    }
    _, im8 = calibrated_int_model(rng, ["bilstm"])
    assert rescale_spans(im8, seq) == {
        ("quant.requantize", "lstm.preacts"): 7,
        ("quant.rescale_add", "lstm.preacts"): 7,
    }


def test_bilstm_directions_build_no_lanes_of_their_own(monkeypatch):
    """A BiLSTM runs its directions as the two lanes of its own stack, so
    their single-lane objects are never built; a unidirectional layer's one
    lane is built with the model, not on its first run."""
    rng = np.random.default_rng(45)
    _, im = calibrated_int_model(rng, ["bilstm", "lstm"])
    assert [None if part is None else part.hidden for part in im.engine] == [None, [3, 3], [3], None]
    monkeypatch.setattr(runtime, "LstmLanes", None)  # a run that built lanes would fail
    runtime.run(im, rng.integers(0, 6, size=5))
