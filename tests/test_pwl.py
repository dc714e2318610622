"""PWL tables: knot selection, LUT equivalence, integer/real agreement."""
import io
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import attend_real, calibrated_int_model, observe, random_attention, random_lstm_config
from qlstm import serialize
from qlstm.pwl import (
    ACTIVATIONS,
    _candidate_grid,
    build_lut,
    build_pwl,
    dump_pwl_csv,
    eval_pwl_int,
    eval_pwl_int_exact,
    eval_pwl_real,
    select_knots,
    sigmoid,
)
from qlstm.quant import compute_qparams, dequantize, quantize

QP_IN_44 = compute_qparams(-4.0, 4.0, 8)
QP_IN_88 = compute_qparams(-8.0, 8.0, 8)
QP_TANH = compute_qparams(-1.0, 1.0, 8)
QP_SIG = compute_qparams(0.0, 1.0, 8)


def select_knots_reference(knots, intercepts, n_pieces):
    """Recompute-all-slopes-each-round transcription of the greedy merge."""
    knots = np.asarray(knots, dtype=np.float64).copy()
    intercepts = np.asarray(intercepts, dtype=np.float64).copy()
    while True:
        slopes = np.diff(intercepts) / np.diff(knots)
        if len(slopes) == n_pieces:
            return knots, slopes, intercepts
        diff_adj = np.abs(slopes[:-1] - slopes[1:])
        j = int(np.argmin(diff_adj))
        knots = np.delete(knots, j + 1)
        intercepts = np.delete(intercepts, j + 1)


def engine_16bit_tables(rng, cells, attentions):
    """The 16-bit-input tables that calibrated conversions build on the
    default candidate count: three per random LSTM cell with 16-bit cell
    and gates, and the two of a random attention calibrated on one step,
    each on 1-16 pieces.  All of them have 8-bit outputs."""
    for _ in range(cells):
        spec = random_lstm_config(rng, cell_bits=16, gate_bits=16, pieces=int(rng.integers(1, 17)))[2]
        yield from (spec.pwl_sig, spec.pwl_tanh_j, spec.pwl_tanh_c)
    for _ in range(attentions):
        pieces = int(rng.integers(1, 17))
        w, xs, h = random_attention(rng)
        r = observe(attend_real, h, xs, w)
        # the exp grids as QuantAttnDecoderSpec.from_float widens them
        exp_in, exp_out = (min(r["exp_in"][0], -1e-6), 0.0), (0.0, max(r["exp_out"][1], 1.0))
        yield build_pwl("tanh", compute_qparams(*r["sum"], 16), compute_qparams(*r["tanh"], 8), pieces)
        yield build_pwl("exp", compute_qparams(*exp_in, 16), compute_qparams(*exp_out, 8), pieces)


def max_lsb_error(t) -> int:
    """The table's largest output distance from the full look-up table, in output steps."""
    return int(np.abs(t.grid_out - build_lut(ACTIVATIONS[t.fn_name], t.in_qp, t.out_qp)).max())


def sigmoid_two_branch(x):
    """The logistic function as two masked branches, each taking ``exp`` of
    a non-positive value: the form ``sigmoid`` must keep the bits of."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    """``build_pwl`` reads ``sigmoid`` for its knot values, so its bits are
    the saved tables' bits."""

    def test_bits_equal_the_two_branch_form(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -1e-310, 745.0, -745.0, 746.0, -746.0]
        grid = np.linspace(-40.0, 40.0, 65_536)
        normals = np.random.default_rng(5).normal(0, 8, 100_000)
        qp16 = compute_qparams(-12.0, 12.0, 16)
        cands = dequantize(_candidate_grid(qp16, None), qp16)
        for x in (np.array(edges), grid, normals, cands, normals.reshape(4, -1)[:, ::3], np.float64(-3.5)):
            assert np.array_equal(sigmoid(x), sigmoid_two_branch(x), equal_nan=True)


class TestBuildLut:
    def test_identity_is_identity(self):
        lut = build_lut(lambda x: x, QP_IN_44, QP_IN_44)
        assert np.array_equal(lut, np.arange(256))

    def test_tanh_zero_point_maps_to_zero_point(self):
        lut = build_lut(np.tanh, QP_TANH, QP_TANH)
        assert lut[QP_TANH.zero_point] == QP_TANH.zero_point

    def test_sigmoid_monotone(self):
        lut = build_lut(sigmoid, QP_IN_88, QP_SIG)
        assert np.all(np.diff(lut) >= 0)


class TestSelectKnots:
    def test_base_case_returns_input(self):
        knots = np.array([0.0, 1.0, 2.0, 3.0])
        vals = np.array([0.0, 1.0, 0.5, 2.0])
        k, s, b = select_knots(knots, vals, 3)
        assert np.array_equal(k, knots) and np.array_equal(b, vals)
        assert np.array_equal(s, np.diff(vals) / np.diff(knots))

    def test_collinear_tie_break_deterministic(self):
        # f(x) = 2x: all slope differences are zero; lowest index is merged first
        knots = np.linspace(0, 5, 6)
        vals = 2 * knots
        k1, _, _ = select_knots(knots, vals, 1)
        k2, _, _ = select_knots(knots, vals, 1)
        assert np.array_equal(k1, k2)
        assert np.array_equal(k1, [0.0, 5.0])

    def test_rejects_bad_piece_count(self):
        with pytest.raises(ValueError):
            select_knots([0.0, 1.0], [0.0, 1.0], 0)

    def test_rejects_non_increasing_knots(self):
        with pytest.raises(ValueError):
            select_knots([0.0, 0.0, 1.0], [0.0, 1.0, 2.0], 1)

    def test_matches_reference_on_tanh_grid(self):
        grid = dequantize(np.arange(256), QP_IN_44)
        vals = np.tanh(grid)
        for pieces in (4, 16, 100):
            k1, s1, b1 = select_knots(grid, vals, pieces)
            k2, s2, b2 = select_knots_reference(grid, vals, pieces)
            assert np.array_equal(k1, k2)
            assert np.array_equal(s1, s2)
            assert np.array_equal(b1, b2)

    def test_survivors_concentrate_at_curvature(self):
        # 4-piece tanh over [-4, 4]: surviving interior knots stay in the curved core
        t = build_pwl("tanh", QP_IN_44, QP_TANH, 4)
        interior = t.knots_r[1:-1]
        assert np.all(np.abs(interior) < 3.0)

    @given(st.data())
    @settings(max_examples=40)
    def test_removal_count_and_endpoints(self, data):
        n = data.draw(st.integers(3, 60))
        pieces = data.draw(st.integers(1, n - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        knots = np.cumsum(rng.uniform(0.1, 1.0, n))
        vals = rng.normal(0, 1, n)
        k, s, b = select_knots(knots, vals, pieces)
        assert len(k) == pieces + 1 and len(s) == pieces and len(b) == pieces + 1
        assert k[0] == knots[0] and k[-1] == knots[-1]
        assert set(k).issubset(set(knots))

    @staticmethod
    def draw_values(data, knots):
        kind = data.draw(st.sampled_from(["flat", "linear", "steps", "random"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        if kind == "flat":
            return np.full(len(knots), rng.normal())
        if kind == "linear":
            return rng.normal() * knots + rng.normal()
        if kind == "steps":  # many equal chord slopes, so many tied slope differences
            return np.round(np.tanh(knots / knots[-1] * 4 - 2) * rng.integers(1, 8)) / 4
        return rng.normal(0, 1, len(knots))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_drawn_data(self, data):
        n = data.draw(st.integers(3, 600))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        knots = np.cumsum(rng.integers(1, 4, n)).astype(np.float64)
        vals = self.draw_values(data, knots)
        for pieces in data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4, unique=True)):
            got = select_knots(knots, vals, pieces)
            want = select_knots_reference(knots, vals, pieces)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_matches_reference_on_4096_sigmoid_candidates(self):
        grid = np.linspace(-8.0, 8.0, 4096)
        vals = sigmoid(grid)
        for g, w in zip(select_knots(grid, vals, 16), select_knots_reference(grid, vals, 16)):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize(
        "knots, vals, message",
        [
            ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0, np.inf, np.inf, 5.0, 6.0], "knot values must be finite"),
            ([0.0, 1.0, 2.0], [0.0, np.nan, 1.0], "knot values must be finite"),
            ([0.0, np.inf, 2.0], [0.0, 1.0, 2.0], "knot values must be finite"),
            ([0.0, 1e-300, 1.0], [0.0, 1e10, 0.0], "knot slopes must be finite"),
            ([0.0, 1.0, 2.0], [-1e308, 0.0, 1e308], "knot slopes must be finite"),  # the merged chord overflows
        ],
    )
    def test_non_finite_rejected_without_warning(self, knots, vals, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                select_knots(knots, vals, 1)

    def test_overflowing_activation_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="knot values must be finite"):
                build_pwl("exp", compute_qparams(-10.0, 800.0, 8), QP_SIG, 4)


class TestBuildPwl:
    def test_full_knot_table_equals_lut(self):
        for f, name, out_qp in ((np.tanh, "tanh", QP_TANH), (sigmoid, "sigmoid", QP_SIG)):
            t = build_pwl(name, QP_IN_44, out_qp, 255)
            lut = build_lut(f, QP_IN_44, out_qp)
            assert np.array_equal(eval_pwl_int(np.arange(256), t), lut)

    def test_single_piece_identity(self):
        t = build_pwl("identity", QP_IN_44, QP_IN_44, 1)
        assert t.n_pieces == 1
        assert t.slopes[0] == pytest.approx(1.0)
        assert t.intercepts[0] == pytest.approx(t.knots_r[0])

    def test_more_pieces_reduce_error(self):
        grid = dequantize(np.arange(256), QP_IN_44)
        errs = {}
        for pieces in (4, 16):
            t = build_pwl("tanh", QP_IN_44, QP_TANH, pieces)
            errs[pieces] = np.max(np.abs(eval_pwl_real(grid, t) - np.tanh(grid)))
        assert errs[16] < errs[4]

    def test_piece_count_validation(self):
        with pytest.raises(ValueError):
            build_pwl("tanh", QP_IN_44, QP_TANH, 0)
        with pytest.raises(ValueError):
            build_pwl("tanh", QP_IN_44, QP_TANH, 256)

    def test_default_16bit_candidates_no_worse_than_4096(self):
        """Per table, the max error on ``CANDIDATES_16BIT`` candidates minus
        that on 4,096 has a median of at most 0: on 24 tables this held for
        every seed of 0-59, where the two medians themselves are too close
        to compare on so few tables (1 LSB at both counts over all 1,440)."""
        tables = list(engine_16bit_tables(np.random.default_rng(0), cells=6, attentions=3))
        assert {(t.in_qp.bitwidth, t.out_qp.bitwidth) for t in tables} == {(16, 8)}
        diffs = [
            max_lsb_error(t) - max_lsb_error(build_pwl(t.fn_name, t.in_qp, t.out_qp, t.n_pieces, candidates=4096))
            for t in tables
        ]
        assert np.median(diffs) <= 0

    def test_non_finite_real_form_rejected_without_warning(self):
        t = build_pwl("tanh", compute_qparams(-10.0, 800.0, 8), QP_TANH, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="knot values and slopes must be finite"):
                replace(t, fn_name="exp")  # exp(800) overflows

    def test_16bit_input_subsampled_build(self):
        in_qp = compute_qparams(-6.0, 0.0, 16)
        out_qp = compute_qparams(0.0, 1.0, 8)
        t = build_pwl("exp", in_qp, out_qp, 12, candidates=512)
        assert t.knots_q[0] == 0 and t.knots_q[-1] == in_qp.qmax
        qs = np.arange(0, in_qp.qmax + 1, 97)
        got = eval_pwl_int(qs, t)
        want = [eval_pwl_int_exact(int(q), t) for q in qs]
        assert np.array_equal(got, want)


class TestEvalReal:
    def test_exact_at_every_knot(self):
        t = build_pwl("tanh", QP_IN_44, QP_TANH, 7)
        got = eval_pwl_real(t.knots_r, t)
        assert np.array_equal(got, np.tanh(t.knots_r))

    def test_linear_function_exact_between_knots(self):
        t = build_pwl("identity", QP_IN_44, QP_IN_44, 3)
        x = (t.knots_r[0] + t.knots_r[1]) / 2
        assert eval_pwl_real(x, t) == pytest.approx(x, abs=1e-12)

    def test_extrapolation_uses_first_piece(self):
        t = build_pwl("tanh", QP_IN_44, QP_TANH, 6)
        x = -10.0
        want = t.slopes[0] * (x - t.knots_r[0]) + t.intercepts[0]
        assert eval_pwl_real(x, t) == want


class TestEvalInt:
    def test_knot_values_quantize_exactly(self):
        t = build_pwl("sigmoid", QP_IN_88, QP_SIG, 9)
        for q, b in zip(t.knots_q, t.intercepts):
            assert eval_pwl_int(int(q), t) == quantize(float(b), QP_SIG)

    def test_tanh_8_piece_monotone(self):
        t = build_pwl("tanh", QP_IN_44, QP_TANH, 8)
        out = eval_pwl_int(np.arange(256), t)
        assert np.all(np.diff(out) >= 0)

    def test_integer_real_agreement_exhaustive(self):
        # bit-exact against quantize(eval_pwl_real(dequantize(q))) over the full grid
        cases = [
            ("tanh", QP_IN_44, QP_TANH),
            ("tanh", QP_IN_88, QP_TANH),
            ("sigmoid", QP_IN_88, QP_SIG),
            ("sigmoid", QP_IN_44, QP_SIG),
            ("exp", compute_qparams(-8.0, 0.0, 8), QP_SIG),
        ]
        qs = np.arange(256)
        for name, in_qp, out_qp in cases:
            for pieces in (4, 8, 16, 255):
                t = build_pwl(name, in_qp, out_qp, pieces)
                got = eval_pwl_int(qs, t)
                want = np.asarray(quantize(eval_pwl_real(dequantize(qs, in_qp), t), out_qp))
                assert np.array_equal(got, want), (name, pieces)

    def test_matches_exact_reference(self):
        t = build_pwl("tanh", QP_IN_44, QP_TANH, 11)
        qs = np.arange(256)
        got = eval_pwl_int(qs, t)
        want = [eval_pwl_int_exact(int(q), t) for q in qs]
        assert np.array_equal(got, want)


class TestGridOutputs:
    @pytest.mark.parametrize(
        "name, in_qp, pieces, candidates",
        [
            ("sigmoid", QP_IN_44, 32, None),  # pins one override point
            ("tanh", QP_IN_88, 8, None),
            ("tanh", compute_qparams(-5.0, 3.0, 16), 12, 256),
            ("tanh", compute_qparams(-6.0, 7.0, 16), 16, None),  # CANDIDATES_16BIT
        ],
        ids=["sigmoid-in_qp0-32", "tanh-in_qp1-8", "tanh-in_qp2-12", "tanh-in_qp3-16"],
    )
    def test_every_entry_equals_exact_oracle(self, name, in_qp, pieces, candidates):
        out_qp = QP_SIG if name == "sigmoid" else QP_TANH
        t = build_pwl(name, in_qp, out_qp, pieces, candidates=candidates)
        if name == "sigmoid":
            assert len(t.override_q) > 0
        assert t.grid_out.shape == (in_qp.qmax + 1,)
        want = np.array([eval_pwl_int_exact(q, t) for q in range(in_qp.qmax + 1)])
        assert np.array_equal(t.grid_out, want)
        assert np.array_equal(eval_pwl_int(np.arange(in_qp.qmax + 1), t), want)
        # a table built from the stored integer constants, as load does, has the same outputs
        assert np.array_equal(replace(t).grid_out, want)

    def test_overrides_are_where_the_fixed_point_grid_misses_the_real_path(self):
        """The build pins exactly the grid points where the override-free
        fixed-point grid differs from the real path evaluated over the whole
        grid at once (``eval_pwl_real``'s piece search)."""
        functions = [
            ("sigmoid", (-8.0, 8.0), (0.0, 1.0)), ("tanh", (-0.5, 0.5), (-0.5, 0.5)), ("exp", (-2.0, 1.0), (0.0, 3.0))
        ]
        cases = [(*f, bits, pieces) for f in functions for bits in (8, 16) for pieces in (16, 32)]
        # one piece whose chord misses the function's value at its last knot by a rounding step
        lo, hi = -2.563244180141597, 7.328513312027216
        cases.append(("identity", (lo, hi), (2 * lo, 2 * hi), 8, 1))
        pinned = 0
        for name, in_range, out_range, bits, pieces in cases:
            in_qp, out_qp = compute_qparams(*in_range, bits), compute_qparams(*out_range, bits)
            t = build_pwl(name, in_qp, out_qp, pieces)
            none = np.zeros(0, dtype=np.int64)
            fixed = replace(t, override_q=none, override_val=none).grid_out
            grid = np.arange(in_qp.qmax + 1)
            want = quantize(eval_pwl_real(dequantize(grid, in_qp), t), out_qp)
            assert np.array_equal(t.override_q, np.flatnonzero(fixed != want)), (name, bits, pieces)
            assert np.array_equal(t.override_val, want[t.override_q])
            assert np.array_equal(t.grid_out, want)
            pinned += len(t.override_q)
        assert pinned > 0

    def test_centred_outputs_cannot_wrap(self):
        t = build_pwl("tanh", QP_IN_44, QP_TANH, 8)
        centred = t.grid_out - QP_TANH.zero_point
        assert centred.min() < 0
        assert np.array_equal(centred, t.grid_out.astype(np.int64) - QP_TANH.zero_point)

    @pytest.mark.parametrize("q", [-1, 256, [0, -1], [255, 256]])
    def test_inputs_off_the_grid_rejected(self, q):
        t = build_pwl("tanh", QP_IN_44, QP_TANH, 8)
        with pytest.raises(ValueError, match="outside the quantized grid"):
            eval_pwl_int(np.array(q), t)


def test_csv_dump(tmp_path):
    t = build_pwl("tanh", QP_IN_44, QP_TANH, 5)
    path = tmp_path / "table.csv"
    with open(path, "w") as fh:
        dump_pwl_csv(t, fh)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "q_x,real_in,real_out,int_out,piece_index"
    assert len(lines) == 257
    first = lines[1].split(",")
    assert int(first[0]) == 0 and int(first[4]) == 0


def test_loaded_table_has_the_built_real_form(tmp_path):
    """A table read back by ``serialize.load`` derives its real form from
    its knots, so it evaluates and dumps as the built table does."""
    _, im = calibrated_int_model(np.random.default_rng(4), ["lstm"], pieces=5)
    path = tmp_path / "m.json"
    serialize.save(im, str(path))
    built, loaded = im.layers[1].spec, serialize.load(str(path)).layers[1].spec
    for name in ("pwl_sig", "pwl_tanh_j", "pwl_tanh_c"):
        a, b = getattr(built, name), getattr(loaded, name)
        assert np.array_equal(b.grid_out, a.grid_out) and eval_pwl_int_exact(17, b) == eval_pwl_int_exact(17, a), name
        grid = dequantize(np.arange(a.in_qp.qmax + 1), a.in_qp)
        assert np.array_equal(eval_pwl_real(grid, b), eval_pwl_real(grid, a)), name
        dumps = []
        for t in (a, b):
            fh = io.StringIO()
            dump_pwl_csv(t, fh)
            dumps.append(fh.getvalue())
        assert dumps[0] == dumps[1] and len(dumps[0].splitlines()) == 257, name
