"""Additive attention: real path, integer softmax/attention vs exact oracle."""
import numpy as np
import pytest

from conftest import observe, random_attention_config, random_cell
from qlstm import attention as att
from qlstm.attention import (
    AttentionWeights,
    QuantAttnDecoderSpec,
    attention_int,
    attention_int_exact,
    attention_real,
    attn_decoder_sequence_exact,
    attn_decoder_sequence_int,
    inject_context,
    softmax_int,
    softmax_int_exact,
)
from qlstm.lstm import lstm_gate_preacts_int
from qlstm.quant import QuantTensor, compute_qparams, dequantize, quantize


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
        s, alpha = attention_real(rng.normal(0, 1, 2), enc, w)
        assert np.array_equal(alpha, [1.0])
        assert np.array_equal(s, enc[0])

    def test_identical_states_uniform_weights(self):
        rng = np.random.default_rng(1)
        w = AttentionWeights(rng.normal(0, 1, (3, 2)), rng.normal(0, 1, (3, 4)), rng.normal(0, 1, 3), rng.normal(0, 1, (8, 4)))
        enc = np.tile(rng.normal(0, 1, 4), (5, 1))
        _, alpha = attention_real(rng.normal(0, 1, 2), enc, w)
        assert np.allclose(alpha, 0.2)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(2)
        w = AttentionWeights(rng.normal(0, 1, (4, 3)), rng.normal(0, 1, (4, 5)), rng.normal(0, 1, 4), rng.normal(0, 1, (12, 5)))
        enc = rng.normal(0, 1, (3, 5))
        h = rng.normal(0, 1, 3)
        s, alpha = attention_real(h, enc, w)
        s_ref, alpha_ref = scalar_reference_attention(h, enc, w)
        assert np.allclose(alpha, alpha_ref, atol=1e-12)
        assert np.allclose(s, s_ref, atol=1e-12)

    def test_alpha_is_textbook_softmax(self):
        rng = np.random.default_rng(3)
        w = AttentionWeights(rng.normal(0, 1, (4, 3)), rng.normal(0, 1, (4, 5)), rng.normal(0, 1, 4), rng.normal(0, 1, (12, 5)))
        enc = rng.normal(0, 1, (6, 5))
        h = rng.normal(0, 1, 3)
        rec = {}
        _, alpha = attention_real(h, enc, w, record=lambda k, v: rec.__setitem__(k, np.array(v)))
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
        _, _, _, spec = random_attention_config(rng)
        q_e = QuantTensor(np.array([1234], dtype=np.uint16), spec.qp_e)
        alpha = softmax_int(q_e, spec)
        assert alpha.data[0] == quantize(1.0, spec.qp_alpha)

    def test_equal_alignments_give_uniform_weights(self):
        rng = np.random.default_rng(6)
        _, _, _, spec = random_attention_config(rng)
        q_e = QuantTensor(np.full(4, 900, dtype=np.uint16), spec.qp_e)
        alpha = softmax_int(q_e, spec)
        assert np.all(alpha.data == quantize(0.25, spec.qp_alpha))

    def test_bit_exact_vs_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            _, _, _, spec = random_attention_config(rng)
            t = int(rng.integers(1, 9))
            q_e = QuantTensor(rng.integers(0, 65536, t).astype(np.uint16), spec.qp_e)
            got = softmax_int(q_e, spec).data.astype(np.int64)
            assert np.array_equal(got, softmax_int_exact(q_e.data, spec))

    def test_integer_shift_leaves_weights_bit_identical(self):
        rng = np.random.default_rng(8)
        _, _, _, spec = random_attention_config(rng)
        base = rng.integers(5000, 20000, 6).astype(np.uint16)
        a1 = softmax_int(QuantTensor(base, spec.qp_e), spec)
        a2 = softmax_int(QuantTensor(base + np.uint16(4000), spec.qp_e), spec)
        assert np.array_equal(a1.data, a2.data)

    def test_weight_sum_close_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            _, _, _, spec = random_attention_config(rng)
            t = int(rng.integers(1, 9))
            q_e = QuantTensor(rng.integers(0, 65536, t).astype(np.uint16), spec.qp_e)
            alpha = softmax_int(q_e, spec)
            deq = alpha.dequantize()
            assert np.all(deq >= 0.0) and np.all(deq <= 1.0 + spec.qp_alpha.scale)
            assert abs(deq.sum() - 1.0) <= t * spec.qp_alpha.scale


class TestAttentionInt:
    def test_bit_exact_vs_oracle_batch(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            w, h, enc, spec = random_attention_config(rng)
            q_h = QuantTensor.from_real(h, spec.qp_h_dec)
            q_enc = QuantTensor.from_real(enc, spec.qp_enc)
            q_s, q_a = attention_int(q_h, q_enc, spec)
            s_ref, a_ref = attention_int_exact(q_h.data, q_enc.data, spec)
            assert np.array_equal(q_s.data.astype(np.int64), s_ref)
            assert np.array_equal(q_a.data.astype(np.int64), a_ref)

    def test_fakequant_matches_int_after_quantization(self):
        rng = np.random.default_rng(11)
        w, h, enc, spec = random_attention_config(rng)
        # fake quantization: quantize -> exact oracle -> dequantize
        q_s_fq, q_a_fq = attention_int_exact(quantize(h, spec.qp_h_dec), quantize(enc, spec.qp_enc), spec)
        s_fq, a_fq = dequantize(q_s_fq, spec.qp_s), dequantize(q_a_fq, spec.qp_alpha)
        q_h = QuantTensor.from_real(h, spec.qp_h_dec)
        q_enc = QuantTensor.from_real(enc, spec.qp_enc)
        q_s, q_a = attention_int(q_h, q_enc, spec)
        assert np.array_equal(np.asarray(quantize(s_fq, spec.qp_s)), q_s.data.astype(np.int64))
        assert np.array_equal(np.asarray(quantize(a_fq, spec.qp_alpha)), q_a.data.astype(np.int64))

    def test_argmax_agreement_with_real_path(self):
        # cross-path statistic pinned at the 95% threshold over 1000 trials
        rng = np.random.default_rng(11)
        agree = 0
        n = 1000
        for _ in range(n):
            w, h, enc, spec = random_attention_config(rng, pieces=12)
            q_h = QuantTensor.from_real(h, spec.qp_h_dec)
            q_enc = QuantTensor.from_real(enc, spec.qp_enc)
            _, q_a = attention_int(q_h, q_enc, spec)
            _, a_real = attention_real(h, enc, w)
            agree += int(np.argmax(q_a.data) == np.argmax(a_real))
        assert agree / n >= 0.95

    def test_singleton_encoder_context_is_rescaled_state(self):
        # T_enc = 1: alpha quantizes to exactly 1.0, so the context is the
        # encoder state re-gridded onto the context qparams
        rng = np.random.default_rng(21)
        w, h, enc, spec = random_attention_config(rng)
        q_enc = QuantTensor.from_real(enc[:1], spec.qp_enc)
        q_s, q_a = attention_int(QuantTensor.from_real(h, spec.qp_h_dec), q_enc, spec)
        assert q_a.data[0] == quantize(1.0, spec.qp_alpha)
        want = np.asarray(quantize(q_enc.dequantize()[0], spec.qp_s))
        assert np.max(np.abs(q_s.data.astype(np.int64) - want)) <= 1

    def test_mismatched_inputs_rejected(self):
        rng = np.random.default_rng(12)
        _, h, enc, spec = random_attention_config(rng)
        bad = QuantTensor.zeros(len(h), compute_qparams(-20.0, 20.0, 8))
        with pytest.raises(ValueError):
            attention_int(bad, QuantTensor.from_real(enc, spec.qp_enc), spec)


def build_decoder(rng, *, gate_bits=8, pieces=8, n_in=3, T=6):
    m_dec = 4
    cell = random_cell(rng, m_dec, n_in)
    attn_w = AttentionWeights(
        rng.normal(0, 0.5, (3, m_dec)),
        rng.normal(0, 0.5, (3, 5)),
        rng.normal(0, 0.5, 3),
        rng.normal(0, 0.5, (4 * m_dec, 5)),
    )
    enc = rng.normal(0, 1, (T, 5))
    xs = rng.normal(0, 1, (T, n_in))
    ranges = observe(att.attn_decoder_sequence_real, xs, enc, cell, attn_w)
    qp_x = compute_qparams(*ranges["x"], 8)
    qp_enc = compute_qparams(float(enc.min()), float(enc.max()), 8)
    dec = QuantAttnDecoderSpec.from_float(
        cell, attn_w, ranges, qp_x=qp_x, qp_enc=qp_enc, pieces=pieces,
        gate_bits=gate_bits, candidates=256,
    )
    return cell, attn_w, xs, enc, dec


class TestInjectContext:
    def test_zero_point_context_leaves_preacts_unchanged(self):
        rng = np.random.default_rng(13)
        _, _, xs, enc, dec = build_decoder(rng)
        q_x = QuantTensor.from_real(xs[0], dec.cell.qp_x)
        state = dec.cell.zero_state()
        pre = lstm_gate_preacts_int(q_x, state.h, dec.cell)
        q_s = QuantTensor.zeros(5, dec.attn.qp_s)
        out = inject_context(pre, q_s, dec)
        assert np.array_equal(out[0].data, pre[0].data)
        assert np.array_equal(out[1].data, pre[1].data)

    def test_decoder_sequence_bit_exact(self):
        rng = np.random.default_rng(14)
        _, _, xs, enc, dec = build_decoder(rng)
        q_xs = QuantTensor.from_real(xs, dec.cell.qp_x)
        q_enc = QuantTensor.from_real(enc, dec.attn.qp_enc)
        got = attn_decoder_sequence_int(q_xs, q_enc, dec)
        want = attn_decoder_sequence_exact(q_xs.data, q_enc.data, dec)
        assert np.array_equal(got.data.astype(np.int64), want)

    def test_decoder_close_to_three_term_real_sum(self):
        rng = np.random.default_rng(15)
        cell, attn_w, xs, enc, dec = build_decoder(rng)
        q_xs = QuantTensor.from_real(xs, dec.cell.qp_x)
        q_enc = QuantTensor.from_real(enc, dec.attn.qp_enc)
        got = attn_decoder_sequence_int(q_xs, q_enc, dec).dequantize()
        want = att.attn_decoder_sequence_real(xs, enc, cell, attn_w)
        assert np.abs(got - want).mean() < 0.1

    def test_16bit_gate_sum_bit_exact(self):
        rng = np.random.default_rng(16)
        _, _, xs, enc, dec = build_decoder(rng, gate_bits=16)
        assert dec.cell.qp_pre_sig.bitwidth == 16
        q_xs = QuantTensor.from_real(xs, dec.cell.qp_x)
        q_enc = QuantTensor.from_real(enc, dec.attn.qp_enc)
        got = attn_decoder_sequence_int(q_xs, q_enc, dec)
        want = attn_decoder_sequence_exact(q_xs.data, q_enc.data, dec)
        assert np.array_equal(got.data.astype(np.int64), want)


def test_ledger_bitwidth_violation_rejected():
    rng = np.random.default_rng(17)
    w, h, enc, spec = random_attention_config(rng)
    from dataclasses import replace

    bad_e = compute_qparams(spec.qp_e.min, spec.qp_e.max, 8)
    with pytest.raises(ValueError):
        replace(spec, qp_e=bad_e)
