"""Additive attention: real path, integer softmax/attention vs exact oracle."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    attend_real,
    attn_consts,
    calibrated_int_model,
    decoder_parts,
    random_decoder,
    stored,
    use_true_functions,
)
from qlstm import attention as att
from qlstm import runtime
from qlstm.attention import (
    AttentionWeights,
    attention_int,
    attention_int_exact,
    attention_keys,
    attn_decoder_sequence_exact,
    attn_decoder_sequence_int,
    inject_context,
    softmax_int,
    softmax_int_exact,
)
from qlstm.lstm import _gate_rows, lstm_gate_preacts_int
from qlstm.quant import compute_qparams, dequantize, quantize


def scalar_reference_attention(h_prev, enc_h, w):
    t_enc = len(enc_h)
    e = np.zeros(t_enc)
    for i in range(t_enc):
        pre = [
            sum(w.w_q[a, k] * h_prev[k] for k in range(w.m_dec))
            + sum(w.w_k[a, k] * enc_h[i][k] for k in range(w.m_enc))
            for a in range(w.m_att)
        ]
        e[i] = sum(w.v[a] * np.tanh(pre[a]) for a in range(w.m_att))
    ex = np.exp(e - e.max())
    alpha = ex / ex.sum()
    s = sum(alpha[i] * enc_h[i] for i in range(t_enc))
    return s, alpha


class TestAttentionReal:
    def test_singleton_encoder(self):
        rng = np.random.default_rng(0)
        w = AttentionWeights(rng.normal(0, 1, (3, 2)), rng.normal(0, 1, (3, 4)), rng.normal(0, 1, 3), rng.normal(0, 1, (8, 4)))
        enc = rng.normal(0, 1, (1, 4))
        s, alpha = attend_real(rng.normal(0, 1, 2), enc, w)
        assert np.array_equal(alpha, [1.0])
        assert np.array_equal(s, enc[0])

    def test_identical_states_uniform_weights(self):
        rng = np.random.default_rng(1)
        w = AttentionWeights(rng.normal(0, 1, (3, 2)), rng.normal(0, 1, (3, 4)), rng.normal(0, 1, 3), rng.normal(0, 1, (8, 4)))
        enc = np.tile(rng.normal(0, 1, 4), (5, 1))
        _, alpha = attend_real(rng.normal(0, 1, 2), enc, w)
        assert np.allclose(alpha, 0.2)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(2)
        w = AttentionWeights(rng.normal(0, 1, (4, 3)), rng.normal(0, 1, (4, 5)), rng.normal(0, 1, 4), rng.normal(0, 1, (12, 5)))
        enc = rng.normal(0, 1, (3, 5))
        h = rng.normal(0, 1, 3)
        s, alpha = attend_real(h, enc, w)
        s_ref, alpha_ref = scalar_reference_attention(h, enc, w)
        assert np.allclose(alpha, alpha_ref, atol=1e-12)
        assert np.allclose(s, s_ref, atol=1e-12)

    def test_alpha_is_textbook_softmax(self):
        rng = np.random.default_rng(3)
        w = AttentionWeights(rng.normal(0, 1, (4, 3)), rng.normal(0, 1, (4, 5)), rng.normal(0, 1, 4), rng.normal(0, 1, (12, 5)))
        enc = rng.normal(0, 1, (6, 5))
        h = rng.normal(0, 1, 3)
        rec = {}
        _, alpha = attend_real(h, enc, w, record=lambda k, v: rec.__setitem__(k, np.array(v)))
        e = rec["e"]
        want = np.exp(e) / np.exp(e).sum()
        assert np.allclose(alpha, want, atol=1e-12)

    def test_shift_invariance_of_real_softmax(self):
        rng = np.random.default_rng(4)
        e = rng.normal(0, 3, 7)
        soft = lambda v: np.exp(v - v.max()) / np.exp(v - v.max()).sum()
        assert np.allclose(soft(e), soft(e + 11.25), atol=1e-12)


class TestSoftmaxInt:
    def test_singleton_is_quantized_one(self):
        rng = np.random.default_rng(5)
        spec = random_decoder(rng)[-1]
        alpha = softmax_int(np.array([1234], dtype=np.uint16), attn_consts(spec))
        assert alpha[0] == quantize(1.0, spec.qp_alpha)

    def test_equal_alignments_give_uniform_weights(self):
        rng = np.random.default_rng(6)
        spec = random_decoder(rng)[-1]
        alpha = softmax_int(np.full(4, 900, dtype=np.uint16), attn_consts(spec))
        assert np.all(alpha == quantize(0.25, spec.qp_alpha))

    def test_bit_exact_vs_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = random_decoder(rng)[-1]
            t = int(rng.integers(1, 9))
            q_e = rng.integers(0, 65536, t).astype(np.uint16)
            assert np.array_equal(softmax_int(q_e, attn_consts(spec)), softmax_int_exact(q_e, spec))

    def test_integer_shift_leaves_weights_bit_identical(self):
        rng = np.random.default_rng(8)
        spec = random_decoder(rng)[-1]
        base = rng.integers(5000, 20000, 6).astype(np.uint16)
        a1 = softmax_int(base, attn_consts(spec))
        a2 = softmax_int(base + np.uint16(4000), attn_consts(spec))
        assert np.array_equal(a1, a2)

    def test_weight_sum_close_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            spec = random_decoder(rng)[-1]
            t = int(rng.integers(1, 9))
            alpha = softmax_int(rng.integers(0, 65536, t).astype(np.uint16), attn_consts(spec))
            deq = dequantize(alpha, spec.qp_alpha)
            assert np.all(deq >= 0.0) and np.all(deq <= 1.0 + spec.qp_alpha.scale)
            assert abs(deq.sum() - 1.0) <= t * spec.qp_alpha.scale


class TestAttentionInt:
    def test_bit_exact_vs_oracle_batch(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            _, w, enc, h, spec = random_decoder(rng)
            q_h, q_enc, a = stored(h, spec.cell.qp_h), stored(enc, spec.cell.qp_x), attn_consts(spec)
            q_s, q_a = attention_int(q_h, attention_keys(q_enc, a), a)
            s_ref, a_ref = attention_int_exact(q_h, q_enc, spec)
            assert np.array_equal(q_s, s_ref)
            assert np.array_equal(q_a, a_ref)

    def test_fakequant_matches_int_after_quantization(self):
        rng = np.random.default_rng(11)
        _, w, enc, h, spec = random_decoder(rng)
        # fake quantization: quantize -> exact oracle -> dequantize
        q_s_fq, q_a_fq = attention_int_exact(quantize(h, spec.cell.qp_h), quantize(enc, spec.cell.qp_x), spec)
        s_fq, a_fq = dequantize(q_s_fq, spec.qp_s), dequantize(q_a_fq, spec.qp_alpha)
        a = attn_consts(spec)
        q_s, q_a = attention_int(stored(h, spec.cell.qp_h), attention_keys(stored(enc, spec.cell.qp_x), a), a)
        assert np.array_equal(np.asarray(quantize(s_fq, spec.qp_s)), q_s)
        assert np.array_equal(np.asarray(quantize(a_fq, spec.qp_alpha)), q_a)

    def test_argmax_agreement_with_real_path(self):
        # cross-path statistic pinned at the 95% threshold over 1000 trials
        rng = np.random.default_rng(11)
        agree = 0
        n = 1000
        for _ in range(n):
            _, w, enc, h, spec = random_decoder(rng, pieces=12)
            a = attn_consts(spec)
            _, q_a = attention_int(stored(h, spec.cell.qp_h), attention_keys(stored(enc, spec.cell.qp_x), a), a)
            _, a_real = attend_real(h, enc, w)
            agree += int(np.argmax(q_a) == np.argmax(a_real))
        assert agree / n >= 0.95

    def test_singleton_encoder_context_is_rescaled_state(self):
        # T_enc = 1: alpha quantizes to exactly 1.0, so the context is the
        # encoder state re-gridded onto the context qparams
        rng = np.random.default_rng(21)
        _, w, enc, h, spec = random_decoder(rng)
        q_enc, a = stored(enc[:1], spec.cell.qp_x), attn_consts(spec)
        q_s, q_a = attention_int(stored(h, spec.cell.qp_h), attention_keys(q_enc, a), a)
        assert q_a[0] == quantize(1.0, spec.qp_alpha)
        want = np.asarray(quantize(dequantize(q_enc, spec.cell.qp_x)[0], spec.qp_s))
        assert np.max(np.abs(q_s - want)) <= 1


def pinned(rng, shape, how: str) -> np.ndarray:
    """uint8 storage: random, all 0, all 255, or a random mix of 0 and 255."""
    return {
        "random": lambda: rng.integers(0, 256, shape),
        "zero": lambda: np.zeros(shape, dtype=np.int64),
        "qmax": lambda: np.full(shape, 255),
        "both": lambda: rng.choice([0, 255], size=shape),
    }[how]().astype(np.uint8)


class TestAttentionKernelEdges:
    @given(
        T=st.integers(1, 40),
        enc_in=st.sampled_from(["random", "zero", "qmax", "both"]),
        h_in=st.sampled_from(["random", "zero", "qmax"]),
        seed=st.integers(0, 2**16),
    )
    def test_attention_equals_oracle(self, T, enc_in, h_in, seed):
        rng = np.random.default_rng(seed)
        spec = random_decoder(rng, pieces=8)[-1]
        q_enc = pinned(rng, (T, spec.w_k_q.shape[1]), enc_in)
        q_h = pinned(rng, spec.w_q_q.shape[1], h_in)
        a = attn_consts(spec)
        q_s, q_a = attention_int(q_h, attention_keys(q_enc, a), a)
        s_ref, a_ref = attention_int_exact(q_h, q_enc, spec)
        assert np.array_equal(q_s, s_ref)
        assert np.array_equal(q_a, a_ref)

    @pytest.mark.parametrize("gate_bits", [8, 16])
    def test_exact_activations_run_the_true_functions(self, monkeypatch, gate_bits):
        """A decoder on exact tables equals the oracle that evaluates the true
        tanh, exp and sigmoid at every activation: 16-bit pre-tanh sums and
        exp inputs, and 8- or 16-bit gate sums."""
        rng = np.random.default_rng(40 + gate_bits)
        _, im = calibrated_int_model(rng, ["attn"], gate_bits=gate_bits)
        exact = runtime.exact_activations(im)
        seqs = [rng.integers(0, 6, size=T) for T in (1, 5, 12)]
        got = [runtime.run(exact, seq) for seq in seqs]
        assert any(not np.array_equal(g, runtime.run(im, seq)) for g, seq in zip(got, seqs))
        use_true_functions(monkeypatch)
        for g, seq in zip(got, seqs):
            assert np.array_equal(g, runtime.run_reference(im, seq))


class TestInjectContext:
    def test_zero_point_context_leaves_preacts_unchanged(self):
        rng = np.random.default_rng(13)
        _, _, xs, _, dec = random_decoder(rng, pieces=8)
        lanes, a = decoder_parts(dec)
        h, _ = lanes.initial_state()
        pre = lstm_gate_preacts_int(stored(xs[:1], dec.cell.qp_x), h, lanes)
        s = np.full(dec.cell.input_size, dec.qp_s.zero_point, dtype=np.uint8)
        out, pre = inject_context(pre, s, a)[0], pre[0]
        sig, j = _gate_rows(dec.cell.hidden_size)
        assert np.array_equal(out[sig], pre[sig])
        assert np.array_equal(out[j], pre[j])

    def test_decoder_sequence_bit_exact(self):
        rng = np.random.default_rng(14)
        _, _, xs, _, dec = random_decoder(rng, pieces=8)
        q_xs = stored(xs, dec.cell.qp_x)
        got = attn_decoder_sequence_int(q_xs, q_xs, *decoder_parts(dec))
        want = attn_decoder_sequence_exact(q_xs, q_xs, dec)
        assert np.array_equal(got.astype(np.int64), want)

    def test_decoder_close_to_three_term_real_sum(self):
        rng = np.random.default_rng(15)
        cell, attn_w, xs, _, dec = random_decoder(rng, pieces=8)
        q_xs = stored(xs, dec.cell.qp_x)
        got = dequantize(attn_decoder_sequence_int(q_xs, q_xs, *decoder_parts(dec)), dec.cell.qp_h)
        want = att.attn_decoder_sequence_real(xs, xs, cell, attn_w)
        assert np.abs(got - want).mean() < 0.1

    def test_decoder_rejects_mismatched_encoder_qparams(self):
        """The decoder's encoder states are its own input, on its cell's
        ``qp_x``: building its model checks that grid against the input's,
        once, as for any layer of cells."""
        rng = np.random.default_rng(12)
        dec = random_decoder(rng, pieces=8)[-1]
        runtime.IntModel([runtime.IntAttnDecoder(dec)], dec.cell.qp_x)
        with pytest.raises(ValueError, match=r"qparams chain broken at layer 0$"):
            runtime.IntModel([runtime.IntAttnDecoder(dec)], compute_qparams(-20.0, 20.0, 8))

    def test_16bit_gate_sum_bit_exact(self):
        rng = np.random.default_rng(16)
        _, _, xs, _, dec = random_decoder(rng, pieces=8, gate_bits=16)
        assert dec.cell.qp_pre_sig.bitwidth == 16
        q_xs = stored(xs, dec.cell.qp_x)
        got = attn_decoder_sequence_int(q_xs, q_xs, *decoder_parts(dec))
        want = attn_decoder_sequence_exact(q_xs, q_xs, dec)
        assert np.array_equal(got.astype(np.int64), want)


def test_keys_are_projected_once_per_sequence(monkeypatch):
    rng = np.random.default_rng(18)
    _, _, xs, _, dec = random_decoder(rng, pieces=8)
    (T, n), m_att = xs.shape, dec.v_q.shape[0]
    shapes, int_matmul = [], att.int_matmul

    def counting(a, b):
        shapes.append((np.shape(a), np.shape(b)))
        return int_matmul(a, b)

    monkeypatch.setattr(att, "int_matmul", counting)
    q_xs = stored(xs, dec.cell.qp_x)
    attn_decoder_sequence_int(q_xs, q_xs, *decoder_parts(dec))
    # one T x m_att x n key product per sequence, never one per step
    assert shapes.count(((T, n), (n, m_att))) == 1
    assert len(shapes) == 1 + 4 * T  # per step: query, score, context and its injection


def test_ledger_bitwidth_violation_rejected():
    rng = np.random.default_rng(17)
    spec = random_decoder(rng)[-1]
    bad_e = compute_qparams(spec.qp_e.min, spec.qp_e.max, 8)
    with pytest.raises(ValueError):
        replace(spec, qp_e=bad_e)
