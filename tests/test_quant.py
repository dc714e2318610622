"""Quantization primitives: scalar examples, grid properties, kernel exactness."""
import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from qlstm.floatguard import trace_float_ops
from qlstm.quant import (
    _BIAS_LIMIT,
    MAX_REDUCE_DIM,
    DegenerateRangeError,
    QuantTensor,
    ScaledMultiplier,
    compute_qparams,
    dequantize,
    int_matmul,
    quantize,
    requantize_exact,
    requantize_scaled,
)

ranges8 = st.tuples(
    st.floats(-1e4, -1e-3), st.floats(1e-3, 1e4)
).map(lambda t: (t[0], t[1]))


class TestComputeQparams:
    def test_unit_scale(self):
        qp = compute_qparams(0.0, 255.0, 8)
        assert qp.scale == 1.0 and qp.zero_point == 0

    def test_symmetric_range(self):
        qp = compute_qparams(-1.0, 1.0, 8)
        assert qp.scale == pytest.approx(2 / 255)
        assert qp.zero_point == 128  # ties round away from zero

    def test_zero_inclusion(self):
        qp = compute_qparams(0.5, 2.0, 8)
        assert qp.min == 0.0
        assert qp.scale == pytest.approx(2 / 255)
        assert qp.zero_point == 0

    def test_degenerate_range_rejected(self):
        with pytest.raises(DegenerateRangeError):
            compute_qparams(0.0, 0.0, 8)

    def test_bad_bitwidth(self):
        with pytest.raises(ValueError):
            compute_qparams(-1.0, 1.0, 12)

    @given(ranges8)
    def test_zero_point_dequantizes_to_zero(self, r):
        qp = compute_qparams(*r, 8)
        assert dequantize(qp.zero_point, qp) == 0.0

    @given(ranges8, st.sampled_from([8, 16]))
    def test_invariants(self, r, bits):
        qp = compute_qparams(*r, bits)
        assert qp.min <= 0.0 <= qp.max
        assert 0 <= qp.zero_point <= qp.qmax
        assert qp.scale == pytest.approx((qp.max - qp.min) / qp.qmax)


class TestQuantizeDequantize:
    def test_zero_maps_to_zero_point(self):
        qp = compute_qparams(-3.7, 11.2, 8)
        assert quantize(0.0, qp) == qp.zero_point

    def test_half_on_symmetric(self):
        qp = compute_qparams(-1.0, 1.0, 8)
        assert quantize(0.5, qp) == 192  # round(63.75) + 128

    def test_clipping(self):
        qp = compute_qparams(-1.0, 1.0, 8)
        assert quantize(10.0, qp) == 255
        assert quantize(-10.0, qp) == 0

    def test_dequantize_extremes(self):
        qp = compute_qparams(-1.0, 1.0, 8)
        assert dequantize(255, qp) == pytest.approx(127 * 2 / 255)

    @given(ranges8, st.floats(-2e4, 2e4))
    def test_round_trip_error_bound(self, r, x):
        qp = compute_qparams(*r, 8)
        x = min(max(x, qp.min), qp.max)
        assert abs(dequantize(quantize(x, qp), qp) - x) <= qp.scale / 2 + 1e-12

    @given(ranges8, st.integers(0, 255))
    def test_grid_round_trip_exact(self, r, q):
        qp = compute_qparams(*r, 8)
        assert quantize(dequantize(q, qp), qp) == q


class TestFixedPointMultiplier:
    """ScaledMultiplier: a positive real as a normalized 31-bit mantissa times 2^-shift."""

    def test_half(self):
        m = ScaledMultiplier.from_real(0.5)
        assert m.mantissa == 1 << 30 and m.shift == 31
        assert m.value == 0.5

    def test_one_over_255(self):
        m = ScaledMultiplier.from_real(1 / 255)
        assert abs(m.value - 1 / 255) / (1 / 255) <= 2**-30

    def test_zero(self):
        assert ScaledMultiplier.from_real(0.0).mantissa == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ScaledMultiplier.from_real(-0.1)

    @given(st.floats(1e-300, 1.0, exclude_max=True))
    def test_relative_error_bound(self, r):
        m = ScaledMultiplier.from_real(r)
        assert (1 << 30) <= m.mantissa < (1 << 31)
        assert abs(m.value - r) / r <= 2**-30

    @given(st.floats(1e-6, 1e6))
    def test_scaled_multiplier_any_magnitude(self, r):
        m = ScaledMultiplier.from_real(r)
        assert abs(m.value - r) / r <= 2**-30


def requantize(acc, r: float, zero_point: int, bits: int):
    return requantize_scaled(acc, ScaledMultiplier.from_real(r), zero_point, bits)


class TestRequantize:
    def test_zero_acc_yields_zero_point(self):
        assert requantize(0, 0.25, 37, 8) == 37

    def test_saturation(self):
        assert requantize(1000, 0.5, 0, 8) == 255

    def test_two_over_255(self):
        assert requantize(100, 2 / 255, 128, 8) == 129  # round(0.7843) + 128

    def test_monotone_in_acc(self):
        accs = np.arange(-4000, 4000, dtype=np.int64)
        out = requantize(accs, 0.37, 128, 8)
        assert np.all(np.diff(out) >= 0)

    def test_bit_exact_against_extended_precision(self):
        # 10^6 random (acc, multiplier) pairs, integer kernel vs big-int reference
        rng = np.random.default_rng(42)
        n_mults = 4096
        n = 10**6
        reals = np.exp(rng.uniform(np.log(1e-7), np.log(0.999), size=n_mults))
        mults = [ScaledMultiplier.from_real(float(r)) for r in reals]
        accs = rng.integers(-(2**31), 2**31, size=n, dtype=np.int64)
        got = np.empty(n, dtype=np.int64)
        want = np.empty(n, dtype=np.int64)
        for i, m in enumerate(mults):
            sl = slice(i, n, n_mults)
            got[sl] = requantize_scaled(accs[sl], m, 128, 8)
            want[sl] = [requantize_exact(int(a), m, 128, 8) for a in accs[sl]]
        assert np.array_equal(got, want)

    def test_16_bit_output(self):
        assert requantize(100_000, 0.9, 0, 16) == 65535
        assert requantize(10_000, 0.9, 500, 16) == 9500


class TestQuantTensor:
    def test_storage_dtype_enforced(self):
        qp = compute_qparams(-1, 1, 8)
        with pytest.raises(ValueError):
            QuantTensor(np.zeros(4, dtype=np.uint16), qp)

    def test_zeros_represent_real_zero(self):
        qp = compute_qparams(-2, 3, 8)
        t = QuantTensor.zeros((2, 3), qp)
        assert np.all(t.dequantize() == 0.0)

    def test_from_real_round_trip(self):
        qp = compute_qparams(-2, 3, 16)
        x = np.linspace(-2, 3, 50)
        t = QuantTensor.from_real(x, qp)
        assert t.data.dtype == np.uint16
        assert np.max(np.abs(t.dequantize() - x)) <= qp.scale / 2 + 1e-12


def _checked_matmul(a, b):
    """int_matmul(a, b), asserted int32, float-free and equal to int64 ``a @ b``."""
    with trace_float_ops() as count:
        got = int_matmul(a, b)
        assert count() == 0
    assert got.dtype == np.int32
    assert np.array_equal(got, a.astype(np.int64) @ b.astype(np.int64))
    return got


class TestIntMatmul:
    """The three operand forms the engine passes: cell matvecs, the attention
    context (vector times matrix) and a transposed weight view on the right
    (attention keys, final projection)."""

    def test_accumulator_bound_leaves_room_for_the_bias(self):
        assert 255 * 255 * MAX_REDUCE_DIM + _BIAS_LIMIT < 2**31

    def test_all_forms_exact_at_max_reduce_dim(self):
        k = MAX_REDUCE_DIM
        rng = np.random.default_rng(0)
        top = np.full(k, 255, dtype=np.int32)
        # rows: all +255, all -255, random signs; each contracted against all +255
        rows = np.stack([top, -top, 255 * rng.choice([-1, 1], k).astype(np.int32)])

        mv = _checked_matmul(rows, top)
        assert mv[0] == 255 * 255 * k and mv[1] == -255 * 255 * k
        assert np.array_equal(_checked_matmul(top, np.ascontiguousarray(rows.T)), mv)
        w = np.stack([top, -top])
        assert not w.T.flags.c_contiguous
        mm = _checked_matmul(rows, w.T)
        assert np.array_equal(mm, np.stack([mv, -mv], axis=1))

    @given(st.sampled_from(["mv", "vm", "mm_t"]), *[st.integers(1, 6)] * 3, st.data())
    def test_matches_int64_matmul(self, form, m, k, n, data):
        shapes = {"mv": ((m, k), (k,)), "vm": ((k,), (k, n)), "mm_t": ((m, k), (n, k))}[form]
        a, b = (data.draw(hnp.arrays(np.int32, shape, elements=st.integers(-255, 255))) for shape in shapes)
        _checked_matmul(a, b.T if form == "mm_t" else b)
