"""Quantization primitives: scalar examples, grid properties, kernel exactness."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import stored
from qlstm.floatguard import trace_float_ops
from qlstm.quant import (
    _BIAS_LIMIT,
    MAX_REDUCE_DIM,
    DegenerateRangeError,
    MultiplierCombo,
    QuantParams,
    QuantTensor,
    Rescale,
    ScaledMultiplier,
    _shift_round_exact,
    combine_round,
    combine_round_exact,
    compute_qparams,
    dequantize,
    divide_round,
    divide_round_exact,
    int_matmul,
    quantize,
    quantize_bias,
    requantize_exact,
    requantize_scaled,
    rescale_add,
    rescale_add_exact,
    saturating_multiplier,
    term_multiplier,
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

    @pytest.mark.parametrize(
        "lo, hi",
        [(np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan), (0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf)]
        + [(-1e308, 1e308)],  # finite bounds, but no finite scale
    )
    def test_non_finite_or_too_wide_range_is_degenerate(self, lo, hi):
        with pytest.raises(DegenerateRangeError, match="is not finite or too wide"):
            compute_qparams(lo, hi, 16)

    @pytest.mark.parametrize("lo, hi", [(0.0, 5e-324), (-5e-324, 0.0), (-5e-324, 5e-324)])
    def test_range_too_narrow_for_a_scale_is_degenerate(self, lo, hi):
        # the scale underflowed to 0 and the zero point raised ZeroDivisionError
        with pytest.raises(DegenerateRangeError, match="too narrow"):
            compute_qparams(lo, hi, 8)

    def test_subnormal_scale_is_degenerate(self):
        # the subnormal scale put the zero point past the grid, which
        # QuantParams rejected as a plain ValueError
        with pytest.raises(ValueError) as err:
            compute_qparams(-6.4e-321, 0.0, 8)
        assert err.type is DegenerateRangeError
        assert "too narrow" in str(err.value)

    @pytest.mark.parametrize("field", ["min", "max", "scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_quant_params_reject_non_finite_fields(self, field, value):
        good = dict(min=-1.0, max=1.0, bitwidth=8, scale=2 / 255, zero_point=128)
        QuantParams(**good)
        with pytest.raises(ValueError, match="must be finite"):
            QuantParams(**{**good, field: value})

    @pytest.mark.parametrize("field", ["bitwidth", "zero_point"])
    @pytest.mark.parametrize("value", [8.0, 8.5, True, "8"])
    def test_quant_params_reject_non_integer_fields(self, field, value):
        good = dict(min=-1.0, max=1.0, bitwidth=8, scale=2 / 255, zero_point=128)
        assert QuantParams(**{**good, field: np.int64(good[field])}) == QuantParams(**good)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            QuantParams(**{**good, field: value})

    @given(ranges8)
    def test_zero_point_dequantizes_to_zero(self, r):
        qp = compute_qparams(*r, 8)
        assert dequantize(qp.zero_point, qp) == 0.0

    # bounds at zero (both signs), tiny and huge spans, and ranges compute_qparams widens to zero
    bounds = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e-3, 1e-3),
    )

    @given(bounds, bounds, st.sampled_from([8, 16]))
    @example(0.0, 1.0, 8)
    @example(-1.0, -0.0, 16)
    @example(-1e-300, 1e-300, 8)
    @example(-1e300, 1e300, 16)
    def test_range_and_bitwidth_derive_the_qparams_back(self, a, b, bits):
        """Models store each qparam as [min, max, bitwidth], and ``load``
        derives the scale and zero point: every result must be a fixed point."""
        try:
            qp = compute_qparams(min(a, b), max(a, b), bits)
        except ValueError:  # DegenerateRangeError included: not a range compute_qparams accepts
            return
        again = compute_qparams(qp.min, qp.max, qp.bitwidth)
        assert again == qp
        assert (again.scale, again.zero_point) == (qp.scale, qp.zero_point)

    @given(ranges8, st.sampled_from([8, 16]))
    def test_invariants(self, r, bits):
        qp = compute_qparams(*r, bits)
        assert qp.min <= 0.0 <= qp.max
        assert 0 <= qp.zero_point <= qp.qmax
        assert qp.scale == pytest.approx((qp.max - qp.min) / qp.qmax)


class TestQuantizeDequantize:
    def test_saturated_bias_keeps_its_sign(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the int64 cast of a huge index warned
            q = quantize_bias(np.array([1.0, -1.0]), 1e-300)
        assert q.dtype == np.int32
        assert q.tolist() == [_BIAS_LIMIT, -_BIAS_LIMIT]

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


def storage_stage(m, zero_point: int, bits: int) -> Rescale:
    """The stage of ``m`` onto a ``bits``-wide storage grid."""
    return Rescale.of(m, zero_point, 0, (1 << bits) - 1)


def requantize(acc, r: float, zero_point: int, bits: int):
    return requantize_scaled(acc, storage_stage(ScaledMultiplier.from_real(r), zero_point, bits))


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
            got[sl] = requantize_scaled(accs[sl], storage_stage(m, 128, 8))
            want[sl] = [requantize_exact(int(a), m, 128, 8) for a in accs[sl]]
        assert np.array_equal(got, want)

    def test_16_bit_output(self):
        assert requantize(100_000, 0.9, 0, 16) == 65535
        assert requantize(10_000, 0.9, 500, 16) == 9500


class TestRescaleRows:
    @given(
        st.lists(
            st.tuples(
                st.integers(-(2**20), 2**20),  # x
                st.integers(0, 2**31 - 1),  # mantissa
                st.integers(-8, 80),  # shift, both edges included
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_each_row_rounds_like_the_exact_helper(self, rows):
        x, mants, shifts = (np.array(c, dtype=np.int64) for c in zip(*rows))
        got = requantize_scaled(x, Rescale(mants, shifts))  # no zero point, no clamp
        for r in range(len(rows)):
            p = int(x[r]) * int(mants[r])  # |p| < 2^52, so shifts >= 63 give 0
            assert got[r] == _shift_round_exact(p, int(shifts[r]))

    def test_blocks_repeat_each_multiplier(self):
        a, b = ScaledMultiplier.from_real(0.3), ScaledMultiplier.from_real(5e9)
        rows = Rescale.of(np.repeat([a, b], [2, 3]))
        x = np.array([7, -7, 1, -1, 0])
        want = [_shift_round_exact(int(v) * m.mantissa, m.shift) for v, m in zip(x, [a, a, b, b, b])]
        assert b.shift <= 0 and np.array_equal(requantize_scaled(x, rows), want)

    def test_scalar_rows_and_lanes_are_one_class(self):
        m = ScaledMultiplier.from_real(0.3)
        x = np.array([[5, -9], [100, 3]])
        want = [[requantize_exact(int(v), m, 10, 8) for v in row] for row in x]
        for ms in (m, [m, m], [[m, m], [m, m]]):
            assert np.array_equal(requantize_scaled(x, Rescale.of(ms, 10, 0, 255)), want)


# One row of a per-row stage: an operand, a multiplier (shifts <= 0 and
# >= 63 included), and a zero point on an 8- or 16-bit output grid.
_mant = st.integers(0, 2**31 - 1)
_shift = st.integers(-8, 80)
_grid = st.tuples(st.sampled_from([8, 16]), st.integers(0, 2**16 - 1)).map(lambda t: (t[0], t[1] % (1 << t[0])))
_x = st.integers(-(2**20), 2**20)
_signed_mant = st.integers(-(2**31), 2**31 - 1)  # a MultiplierCombo's
_num = st.integers(-(2**31) + 1, 2**31 - 1)  # divide_round's numerator bound


def _row_grid(rows):
    """The per-row zero points and clamp bounds of ``(…, (bits, zp))`` rows."""
    bits = np.array([r[-1][0] for r in rows])
    return np.array([r[-1][1] for r in rows]), 0, (1 << bits) - 1


class TestStageOps:
    """Each of the four ops on a random per-row stage equals its exact
    twin row by row; the examples pin both clamp bounds, shifts <= 0 and
    >= 63, and divisors past 2^61 and 2^63."""

    @given(st.lists(st.tuples(_x, _mant, _shift, _grid), min_size=1, max_size=12))
    @example([(2**20, 2**31 - 1, -8, (8, 0)), (-(2**20), 2**31 - 1, 0, (16, 65535)), (5, 2**30, 70, (8, 3))])
    def test_requantize_scaled(self, rows):
        x, mants, shifts = (np.array(c, dtype=np.int64) for c in list(zip(*rows))[:3])
        got = requantize_scaled(x, Rescale(mants, shifts, *_row_grid(rows)))
        want = [requantize_exact(a, ScaledMultiplier(m, s), zp, b) for a, m, s, (b, zp) in rows]
        assert np.array_equal(got, want)

    @given(st.lists(st.tuples(_x, _x, _mant, _mant, _shift, _shift, _grid), min_size=1, max_size=12))
    @example([(2**20, 2**20, 2**31 - 1, 2**31 - 1, -8, -8, (8, 0)), (-(2**20), -7, 2**31 - 1, 5, 0, 63, (16, 9))])
    def test_rescale_add(self, rows):
        cols = [np.array(c, dtype=np.int64) for c in list(zip(*rows))[:6]]
        terms, mants, shifts = (np.stack(cols[i : i + 2]) for i in (0, 2, 4))  # term axis first: (2, rows)
        got = rescale_add(terms, Rescale(mants, shifts, *_row_grid(rows)))
        want = [
            rescale_add_exact([(a, ScaledMultiplier(ma, sa)), (b, ScaledMultiplier(mb, sb))], zp, bits)
            for a, b, ma, mb, sa, sb, (bits, zp) in rows
        ]
        assert np.array_equal(got, want)

    @given(st.lists(st.tuples(_x, _x, _signed_mant, _signed_mant, _shift, _grid), min_size=1, max_size=12))
    @example([(2**20, 1, 2**31 - 1, -(2**31), -8, (8, 0)), (-(2**20), 3, 2**31 - 1, 0, 2, (16, 0))])
    @example([(9, 9, 1, 1, 64, (8, 7))])
    def test_combine_round(self, rows):
        d, a, shifts = np.array([r[:2] for r in rows]), np.array([r[2:4] for r in rows]), [[r[4]] for r in rows]
        zp, lo, hi = _row_grid(rows)
        stage = Rescale(a, shifts, zp[:, None], lo, hi[:, None])
        got = combine_round((d * stage.mant).sum(axis=1, keepdims=True), stage)[:, 0]
        want = [combine_round_exact(r[:2], MultiplierCombo(r[2:4], r[4]), r[5][1], r[5][0]) for r in rows]
        assert np.array_equal(got, want)

    @given(st.lists(st.tuples(_num, st.integers(1, 2**62), _mant, _shift, _grid), min_size=1, max_size=12))
    @example(
        [
            (3, 2, 1, 0, (8, 0)),  # 1.5: a tie, away from zero
            (-3, 2, 1, 0, (8, 100)),
            (2**31 - 1, 2**31 - 1, 2**31 - 1, 31, (8, 0)),  # D just below 2^62, quotient 1
            (2**31 - 1, 2**40, 2**31 - 1, 22, (8, 0)),  # D = 2^62: past 2^61
            (-(2**31) + 1, 2**62, 2**31 - 1, 1, (16, 65535)),  # D = 2^63: past int64
            (2**31 - 1, 1, 2**31 - 1, 0, (16, 0)),  # saturates high
            (-(2**31) + 1, 1, 2**31 - 1, 0, (16, 65535)),  # saturates low
            (7, 5, 2**30, 70, (8, 4)),
            (2**20, 3, 2**31 - 1, -8, (8, 0)),
        ]
    )
    def test_divide_round(self, rows):
        # a left shift folded into the mantissa leaves |num * mantissa| below 2^62
        rows = [(n >> max(-s, 0), den, m, s, g) for n, den, m, s, g in rows]
        num, den, mants, shifts = (np.array(c, dtype=np.int64) for c in list(zip(*rows))[:4])
        got = divide_round(num, den, Rescale(mants, shifts, *_row_grid(rows)))
        want = [divide_round_exact(n * m, den, s, zp, bits) for n, den, m, s, (bits, zp) in rows]
        assert np.array_equal(got, want)


class TestTermMultiplier:
    """A negative shift is folded into a left shift of the int64 product:
    2^k has mantissa 2^30 and shift 30 - k, so on operands up to 255 the
    folded product reaches 255 * 2^k, which stays below 2^61 up to k = 53."""

    def test_folded_product_limit(self):
        assert term_multiplier("s", 2.0**53, 255).shift == -23
        with pytest.raises(ValueError, match="stage 's': multiplier .* on operands up to 255 overflows int64"):
            term_multiplier("s", 2.0**54, 255)

    def test_the_operand_bound_decides(self):
        assert term_multiplier("s", 2.0**40, 255).shift == -10
        with pytest.raises(ValueError, match="stage 'c'"):
            term_multiplier("c", 2.0**40, 2**31)

    def test_non_negative_shifts_are_never_folded(self):
        assert term_multiplier("s", 2.0**30, 2**62).shift == 0
        assert term_multiplier("s", 1e-30, 2**62).shift > 63


class TestSaturatingMultiplier:
    @pytest.mark.parametrize("r", [2.0**30, 3e9, 2.0**40 + 1, 1e20, 4.9e142])
    def test_capped_multiplier_saturates_like_the_exact_one(self, r):
        m = saturating_multiplier(r)
        assert (m.mantissa, m.shift) == (1 << 30, 0)
        for bits in (8, 16):
            for zp in (0, 100, (1 << bits) - 1):
                accs = np.array([-(2**31), -(2**20), -1, 0, 1, 7, 2**31 - 1], dtype=np.int64)
                want = [requantize_exact(int(a), ScaledMultiplier.from_real(r), zp, bits) for a in accs]
                assert np.array_equal(requantize_scaled(accs, storage_stage(m, zp, bits)), want)

    def test_smaller_multipliers_are_left_alone(self):
        for r in (1e-30, 0.37, 255.0, 2.0**29):
            assert saturating_multiplier(r) == ScaledMultiplier.from_real(r)


class TestQuantTensor:
    def test_storage_dtype_enforced(self):
        qp = compute_qparams(-1, 1, 8)
        with pytest.raises(ValueError):
            QuantTensor(np.zeros(4, dtype=np.uint16), qp)

    def test_dequantize_round_trip(self):
        qp = compute_qparams(-2, 3, 16)
        x = np.linspace(-2, 3, 50)
        t = QuantTensor(stored(x, qp), qp)
        assert t.data.dtype == np.uint16
        assert np.max(np.abs(t.dequantize() - x)) <= qp.scale / 2 + 1e-12


def _checked_matmul(a, b):
    """int_matmul(a, b), asserted int32, float-free and equal to int64 ``a @ b``."""
    with trace_float_ops() as count:
        got = int_matmul(a, b)
        assert count() == 0
    assert got.dtype == np.int32
    a, b = a.astype(np.int64), b.astype(np.int64)
    assert np.array_equal(got, a @ b if b.ndim < 3 else (a[:, None] @ b)[:, 0])
    return got


class TestIntMatmul:
    """The four operand forms the engine passes: matvecs (attention query,
    context injection), the attention context (vector times matrix), a
    transposed weight view on the right (attention keys, final projection)
    and the LSTM lanes' batched vector-matrix product over k-major weights."""

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
        lanes = _checked_matmul(np.stack([top, top]), np.stack([rows.T, -rows.T]))
        assert np.array_equal(lanes, np.stack([mv, -mv]))

    @given(st.sampled_from(["mv", "vm", "mm_t", "lanes"]), *[st.integers(1, 6)] * 3, st.data())
    def test_matches_int64_matmul(self, form, m, k, n, data):
        shapes = {
            "mv": ((m, k), (k,)), "vm": ((k,), (k, n)), "mm_t": ((m, k), (n, k)), "lanes": ((m, k), (m, k, n))
        }[form]
        a, b = (data.draw(hnp.arrays(np.int32, shape, elements=st.integers(-255, 255))) for shape in shapes)
        _checked_matmul(a, b.T if form == "mm_t" else b)
