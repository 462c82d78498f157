"""Bit-identity guard for the adversarial DP backward induction.

The kernel reads every clamped shift as a view of one padded buffer and
accumulates into preallocated rows.  This file keeps a frozen copy of the
earlier allocating kernel (a fresh displaced copy per shift) and requires
the same root, grid and policy bytes on hypothesis-drawn problems: same
IEEE operations, same order, same results.
"""
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nlclt.classical import DiscreteLaw
from nlclt.densities import MeanInterval, VarianceInterval
from nlclt.measure_dp import RectangularModel, _backward_induction, _dp_grid
from nlclt.sublinear import SShapeSpec, make_s_shaped, named_test_function


# ---------------------------------------------------------------------------
# frozen allocating reference
# ---------------------------------------------------------------------------

def ref_clamped_int_shift(v, m):
    if m == 0:
        return v
    m = max(-(len(v) - 1), min(len(v) - 1, m))
    out = np.empty_like(v)
    if m > 0:
        out[:len(v) - m] = v[m:]
        out[len(v) - m:] = v[-1]
    else:
        out[-m:] = v[:m]
        out[:-m] = v[0]
    return out


def ref_shift(v, offset_cells):
    m = math.floor(offset_cells + 0.5)
    if abs(offset_cells - m) < 1e-9:
        return ref_clamped_int_shift(v, m)
    m = math.floor(offset_cells)
    w = offset_cells - m
    return (1.0 - w) * ref_clamped_int_shift(v, m) \
        + w * ref_clamped_int_shift(v, m + 1)


def ref_backward_induction(model, phi, side, target_points, record_policy,
                           controls=None):
    if controls is None:
        controls = model.controls()
    x, h, offsets, exact = _dp_grid(model, target_points, controls)
    probs = np.asarray(model.innovation.probs, dtype=float)
    n = model.n
    values = phi(x)
    take_best = np.max if side == "sup" else np.min
    arg_best = np.argmax if side == "sup" else np.argmin
    policy = np.empty((n, len(x)), dtype=np.int8) if record_policy else None
    for step in range(n - 1, -1, -1):
        stacked = np.empty((len(controls), len(x)))
        for ci in range(len(controls)):
            acc = np.zeros(len(x))
            for aj, p in enumerate(probs):
                off = offsets[ci, aj]
                shifted = ref_clamped_int_shift(values, int(off)) if exact \
                    else ref_shift(values, off)
                acc += p * shifted
            stacked[ci] = acc
        if record_policy:
            policy[step] = arg_best(stacked, axis=0)
        values = take_best(stacked, axis=0)
    root = float(values[len(x) // 2])
    return root, x, h, policy


# ---------------------------------------------------------------------------
# drawn problems
# ---------------------------------------------------------------------------

def standardized_bernoulli(p):
    """Bernoulli(p) shifted and scaled to zero mean and unit variance."""
    law = DiscreteLaw.bernoulli(p)
    s = math.sqrt(p * (1.0 - p))
    return DiscreteLaw(values=tuple((v - p) / s for v in law.values),
                       probs=law.probs)


def ordered_pair(lo, hi):
    """(a, b) with a <= b, equal about a third of the time."""
    value = st.floats(lo, hi, allow_nan=False)
    return st.one_of(
        value.map(lambda a: (a, a)),
        st.tuples(value, value).map(lambda p: (min(p), max(p))),
    )


@st.composite
def innovations(draw):
    if draw(st.booleans()):
        return DiscreteLaw.rademacher()
    # p near 0 puts an atom of size ~sqrt(1/p) beyond the whole grid
    p = draw(st.one_of(st.floats(0.002, 0.01), st.floats(0.002, 0.998)))
    return standardized_bernoulli(p)


@st.composite
def payoffs(draw):
    name = draw(st.sampled_from(["gauss", "normal_cdf", "tanh", "s_shape"]))
    if name != "s_shape":
        return named_test_function(name)
    spec = SShapeSpec(phi1=named_test_function("tanh"),
                      c=draw(st.floats(-1.0, 1.0)),
                      theta=draw(st.floats(0.2, 1.0)))
    return make_s_shaped(spec, draw(st.sampled_from(["phi", "phibar"])))


@st.composite
def models(draw):
    n = draw(st.one_of(st.integers(1, 2), st.integers(1, 60)))
    law = draw(innovations())
    if draw(st.booleans()):
        # integer-related, rational or irrational scale ratios
        lo = draw(st.sampled_from([0.5, 1.0, 1.3]))
        ratio = draw(st.sampled_from([1.0, 2.0, 1.5, math.sqrt(2.0)]))
        return RectangularModel.variance_uncertain(
            VarianceInterval(lo, lo * ratio), n, innovation=law)
    mu_low, mu_high = draw(ordered_pair(-1.0, 1.0))
    # a large sigma at small n shifts by more than the whole grid
    sigma = draw(st.sampled_from([0.5, 1.0, 3.0, 25.0]))
    return RectangularModel.mean_uncertain(MeanInterval(mu_low, mu_high),
                                           sigma, n, innovation=law)


@st.composite
def problems(draw):
    model = draw(models())
    controls = None
    if draw(st.booleans()):
        lo, hi = model.controls()[0], model.controls()[-1]
        controls = np.linspace(lo, hi, draw(st.integers(1, 7)))
    return (model, draw(payoffs()), draw(st.sampled_from(["sup", "inf"])),
            draw(st.integers(3, 401)), draw(st.booleans()), controls)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_padded_view_induction_is_bit_identical(problem):
    model, phi, side, points, record_policy, controls = problem
    root, x, h, policy = _backward_induction(model, phi, side, points,
                                             record_policy, controls=controls)
    ref_root, ref_x, ref_h, ref_policy = ref_backward_induction(
        model, phi, side, points, record_policy, controls=controls)
    assert np.float64(root).tobytes() == np.float64(ref_root).tobytes()
    assert x.tobytes() == ref_x.tobytes()
    assert h == ref_h
    if record_policy:
        assert policy.dtype == ref_policy.dtype
        assert policy.shape == ref_policy.shape
        assert policy.tobytes() == ref_policy.tobytes()
    else:
        assert policy is None and ref_policy is None


def test_whole_vector_clamps_on_a_tiny_grid():
    # n = 1 and sigma = 25: the innovation shift is 26, wider than the grid
    model = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 25.0, 1)
    phi = named_test_function("normal_cdf")
    x, h, offsets, _ = _dp_grid(model, 5)
    assert np.abs(offsets).max() > len(x) - 1
    for side in ("sup", "inf"):
        got = _backward_induction(model, phi, side, 5, True)
        ref = ref_backward_induction(model, phi, side, 5, True)
        assert got[0] == ref[0]
        assert got[3].tobytes() == ref[3].tobytes()
