"""The numpy-native normal kernel behind std_normal_cdf_arr and erfcx_arr.

Checks the fdlibm coefficients against their IEEE words, the values against
math.erfc over the whole real line and at every range edge, the special
arguments, block independence across array shapes and sizes, and the memory
a large call holds.
"""
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlclt import numerics
from nlclt.errors import InvalidParams
from nlclt.numerics import erfcx, erfcx_arr, std_normal_cdf, std_normal_cdf_arr

SQRT2 = math.sqrt(2.0)

# fdlibm s_erf.c: each coefficient with its high and low IEEE words
HEX_WORDS = {
    "_ERX": ["3FEB0AC1 60000000"],
    "_PP": ["3FC06EBA 8214DB68", "BFD4CD7D 691CB913", "BF9D2A51 DBD7194F",
            "BF77A291 236668E4", "BEF8EAD6 120016AC"],
    "_QQ": [None, "3FD97779 CDDADC09", "3FB0A54C 5536CEBA", "3F74D022 C4D36B0F",
            "3F215DC9 221C1A10", "BED09C43 42A26120"],
    "_PA": ["BF6359B8 BEF77538", "3FDA8D00 AD92B34D", "BFD7D240 FBB8C3F1",
            "3FD45FCA 805120E4", "BFBC6398 3D3E28EC", "3FA22A36 599795EB",
            "BF61BF38 0A96073F"],
    "_QA": [None, "3FBB3E66 18EEE323", "3FE14AF0 92EB6F33", "3FB2635C D99FE9A7",
            "3FC02660 E763351F", "3F8BEDC2 6B51DD1C", "3F888B54 5735151D"],
    "_RA": ["BF843412 600D6435", "BFE63416 E4BA7360", "C0251E04 41B0E726",
            "C04F300A E4CBA38D", "C0644CB1 84282266", "C067135C EBCCABB2",
            "C0545265 57E4D2F2", "C023A0EF C69AC25C"],
    "_SA": [None, "4033A6B9 BD707687", "4061350C 526AE721", "407B290D D58A1A71",
            "40842B19 21EC2868", "407AD021 57700314", "405B28A3 EE48AE2C",
            "401A47EF 8E484A93", "BFAEEFF2 EE749A62"],
    "_RB": ["BF843412 39E86F4A", "BFE993BA 70C285DE", "C031C209 555F995A",
            "C064145D 43C5ED98", "C083EC88 1375F228", "C0900461 6A2E5992",
            "C07E384E 9BDC383F"],
    "_SB": [None, "403E568B 261D5190", "40745CAE 221B9F0A", "409802EB 189D5118",
            "40A8FFB7 688C246A", "40A3F219 CEDF3BE6", "407DA874 E79FE763",
            "C03670E2 42712D62"],
    "_X35": ["4006DB6D 00000000"],
}

EDGES = (0.25, 0.84375, 1.25, numerics._X35, 6.0, 26.0, 28.0)


def from_words(words: str) -> float:
    return struct.unpack(">d", bytes.fromhex(words.replace(" ", "")))[0]


def erfcx_reference(x: float) -> float:
    """exp(x^2) erfc(x) below 26; above, the continued fraction
    1/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))."""
    if x < 26.0:
        return math.exp(x * x) * math.erfc(x)
    tail = x
    for k in range(60, 0, -1):
        tail = x + (k / 2.0) / tail
    return 1.0 / math.sqrt(math.pi) / tail


def erfcx_error(value: float, ref: float) -> float:
    """Relative above 1, absolute below."""
    return abs(value - ref) / max(1.0, abs(ref))


def neighbours(v: float, ulps: int = 1):
    """v and the `ulps` doubles on each side of it."""
    out = [v]
    lo = hi = v
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return sorted(float(w) for w in out)


class TestCoefficients:
    @pytest.mark.parametrize("name", sorted(HEX_WORDS))
    def test_every_coefficient_matches_its_ieee_word(self, name):
        value = getattr(numerics, name)
        values = value if isinstance(value, tuple) else (value,)
        words = HEX_WORDS[name]
        assert len(values) == len(words)
        for v, w in zip(values, words):
            assert v == (1.0 if w is None else from_words(w))

    def test_all_fifty_four_are_checked(self):
        checked = sum(w is not None for ws in HEX_WORDS.values() for w in ws)
        assert checked == 54 + 1   # 54 coefficients and the 1/0.35 breakpoint


class TestAgainstMathErfc:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.floats(allow_nan=False, allow_infinity=True))
    def test_phi_whole_real_line(self, x):
        value = float(std_normal_cdf_arr(np.array([x]))[0])
        assert abs(value - std_normal_cdf(x)) <= 1e-14

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.floats(min_value=-26.0, allow_nan=False, allow_infinity=False))
    def test_erfcx_whole_real_line(self, x):
        value = float(erfcx_arr(np.array([x]))[0])
        assert erfcx_error(value, erfcx_reference(x)) <= 1e-13

    @pytest.mark.parametrize("edge", EDGES)
    def test_phi_at_range_edges(self, edge):
        # x within 3 ulps of -sqrt(2) * edge puts t = x / -sqrt(2) on both
        # sides of the erfc edge
        for x in (*neighbours(-edge * SQRT2, 3), *neighbours(edge * SQRT2, 3)):
            t = x / -SQRT2
            value = float(std_normal_cdf_arr(np.array([x]))[0])
            assert abs(value - 0.5 * math.erfc(t)) <= 1e-14
            # erfc itself to a few ulps, relative, tail included
            assert abs(2.0 * value - math.erfc(t)) <= 4e-16 * math.erfc(t)

    @pytest.mark.parametrize("edge", EDGES)
    def test_erfcx_at_range_edges(self, edge):
        for x in (*neighbours(edge), *neighbours(-edge)):
            value = float(erfcx_arr(np.array([x]))[0])
            if x < -26.6:
                assert value == math.inf
            else:
                assert erfcx_error(value, erfcx_reference(x)) <= 1e-13

    def test_dense_grid_matches_in_one_call(self):
        x = np.linspace(-40.0, 40.0, 40001)
        ref = np.array([std_normal_cdf(v) for v in x.tolist()])
        assert np.max(np.abs(std_normal_cdf_arr(x) - ref)) <= 1e-14
        y = np.linspace(-26.0, 80.0, 40001)
        got = erfcx_arr(y)
        assert max(erfcx_error(g, erfcx_reference(v))
                   for g, v in zip(got.tolist(), y.tolist())) <= 1e-13


class TestSpecialArguments:
    def test_phi_signed_zeros_infinities_subnormals(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308])
        assert std_normal_cdf_arr(x).tolist() == [0.5, 0.5, 1.0, 0.0, 0.5, 0.5, 0.5]

    def test_erfcx_signed_zeros_infinities_subnormals(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324])
        assert erfcx_arr(x).tolist() == [1.0, 1.0, 0.0, math.inf, 1.0, 1.0]

    def test_erfcx_overflows_to_inf_far_left(self):
        with np.errstate(over="raise"):
            assert erfcx_arr(np.array([-27.0, -1e200])).tolist() == [math.inf, math.inf]

    def test_erfcx_huge_arguments(self):
        # the series, whose argument is clipped at 2**32 where it sums to 1
        for x in (3e4, 1e8, 1e20, 1e300):
            value = float(erfcx_arr(np.array([x]))[0])
            ref = erfcx_reference(x)
            assert abs(value - ref) <= 4e-16 * ref

    def test_phi_nan_raises(self):
        with pytest.raises(InvalidParams):
            std_normal_cdf_arr(np.array([0.0, np.nan, 1.0]))
        with pytest.raises(InvalidParams):
            std_normal_cdf_arr(np.full((3, 4), np.nan))

    def test_erfcx_nan_is_nan(self):
        out = erfcx_arr(np.array([1.0, np.nan, -1.0]))
        assert math.isnan(out[1]) and not np.isnan(out[[0, 2]]).any()
        assert math.isnan(erfcx(math.nan))

    def test_no_floating_point_warnings(self):
        # underflow to 0 in the far tail is the value, and numpy ignores it
        x = np.concatenate([np.linspace(-1e3, 1e3, 4001), [0.0, np.inf, -np.inf]])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            std_normal_cdf_arr(x)
            erfcx_arr(np.abs(x))
            erfcx_arr(np.array([np.nan, -26.0, 0.5]))


class TestShapesAndBlocks:
    def test_zero_d_and_python_scalars(self):
        for f in (std_normal_cdf_arr, erfcx_arr):
            for arg in (1.5, np.float64(1.5), np.array(1.5)):
                out = f(arg)
                assert isinstance(out, np.ndarray) and out.shape == ()
                assert out == f(np.array([1.5]))[0]

    def test_empty(self):
        for f in (std_normal_cdf_arr, erfcx_arr):
            for shape in ((0,), (3, 0)):
                out = f(np.empty(shape))
                assert out.shape == shape and out.dtype == np.float64

    def test_two_d_and_non_contiguous_views(self):
        base = np.linspace(-30.0, 30.0, 600).reshape(20, 30)
        for f in (std_normal_cdf_arr, erfcx_arr):
            flat = f(base.ravel())
            assert f(base).tobytes() == flat.reshape(20, 30).tobytes()
            assert f(base.T).tobytes() == flat.reshape(20, 30).T.copy().tobytes()
            assert f(base[::3, 1::2]).tobytes() == \
                flat.reshape(20, 30)[::3, 1::2].copy().tobytes()

    def test_integer_input_and_input_untouched(self):
        x = np.arange(-5, 6)
        keep = x.copy()
        assert std_normal_cdf_arr(x).tolist() == std_normal_cdf_arr(x.astype(float)).tolist()
        erfcx_arr(x)
        assert x.tolist() == keep.tolist()

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2 * numerics._BLOCK + 5])
    def test_values_do_not_depend_on_the_block(self, extra):
        size = numerics._BLOCK + extra
        rng = np.random.default_rng(size)
        x = rng.uniform(-30.0, 30.0, size)
        x[::7] = rng.uniform(-1.5, 1.5, len(x[::7]))
        for f in (std_normal_cdf_arr, erfcx_arr):
            whole = f(x)
            pieces = np.concatenate([f(x[i:i + 15]) for i in range(0, size, 15)])
            assert whole.tobytes() == pieces.tobytes()

    def test_scalar_erfcx_is_the_kernel_value(self):
        for x in (-3.0, 0.3, 1.0, 2.0, 25.999999, 26.000001, 40.0):
            assert erfcx(x) == float(erfcx_arr(np.array([x]))[0])


class TestMemory:
    def test_phi_on_a_million_points_stays_small(self):
        x = np.random.default_rng(0).uniform(-38.0, 38.0, 1_000_000)
        tracemalloc.start()
        try:
            out = std_normal_cdf_arr(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape
        assert peak < 16e6   # the 8 MB result plus one block of temporaries


class TestAgainstMpmath:
    """Tighter than math.erfc allows: its own exp(x*x) rounds x^2."""

    def test_erfcx_relative_error(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        x = np.concatenate([np.linspace(0.0, 30.0, 1201), np.linspace(30.0, 1e4, 200)])
        got = erfcx_arr(x)
        for g, v in zip(got.tolist(), x.tolist()):
            ref = float(mpmath.exp(mpmath.mpf(v) ** 2) * mpmath.erfc(mpmath.mpf(v)))
            assert abs(g - ref) <= 2e-15 * ref

    def test_phi_left_tail_relative_error(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        x = np.linspace(-36.0, -1.0, 701)
        got = std_normal_cdf_arr(x)
        for g, v in zip(got.tolist(), x.tolist()):
            ref = float(mpmath.erfc(mpmath.mpf(v / -SQRT2)) / 2)
            assert abs(g - ref) <= 4e-15 * ref
