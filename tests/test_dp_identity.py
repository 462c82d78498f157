"""Bit-identity guard for the adversarial DP backward induction.

The kernel reads every clamped shift as a view of one padded buffer and
accumulates into preallocated rows, on two levels: one expectation per
group of weighted whole-cell moves, read by each control at its drift.
This file keeps a frozen allocating reference (a fresh displaced copy per
shift) and requires the same root, grid and policy bytes on
hypothesis-drawn problems: same IEEE operations, same order, same
results.  Where the innovation moves are whole cells the reference sums
E = 0.0 + sum of p * shift(V, f + m), then (1 - w) * E(f) + w * E(f + 1);
every other control sums 0.0 + q * shift(V, m) over the weighted cells of
its atoms' summed offsets, (m, p * (1 - w)) and (m + 1, p * w) per atom.
The per-atom form, 0.0 + sum of p * ((1 - w) * shift(V, m) +
w * shift(V, m + 1)) on every control, stays within 1e-12 of the
kernel's root.
"""
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers_dp import standardized_bernoulli
from nlclt.classical import DiscreteLaw
from nlclt.densities import MeanInterval, VarianceInterval
from nlclt.measure_dp import (RectangularModel, _backward_induction, _dp_grid,
                              _lattice_stencil)
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


def ref_expectation(v, probs, moves, f):
    """0.0 + sum over atoms of p * v[i + f + m]: the innovation expectation
    read f cells on, from v itself past both ends."""
    acc = np.zeros(len(v))
    for p, m in zip(probs, moves):
        acc += p * ref_clamped_int_shift(v, f + m)
    return acc


def ref_weighted_terms(row, probs):
    """(m, q) per cell that the atoms' summed offsets reach: (m, p) at a
    whole cell m, else (m, p * (1 - w)) and (m + 1, p * w) with m the floor
    and w the rest."""
    terms = []
    for off, p in zip(row, probs):
        m = math.floor(off + 0.5)
        if abs(off - m) < 1e-9:
            terms.append((m, p))
            continue
        m = math.floor(off)
        w = off - m
        terms += [(m, p * (1.0 - w)), (m + 1, p * w)]
    return terms


def ref_backward_induction(model, phi, side, target_points, record_policy,
                           controls=None, two_level=True):
    x, h, offsets, drift = _dp_grid(model, target_points, controls)
    probs = np.asarray(model.innovation.probs, dtype=float)
    n = model.n
    values = phi(x)
    take_best = np.max if side == "sup" else np.min
    arg_best = np.argmax if side == "sup" else np.argmin
    count = len(offsets)
    dtype = np.int8 if count <= 128 else np.int16
    policy = np.empty((n, len(x)), dtype=dtype) if record_policy else None
    for step in range(n - 1, -1, -1):
        stacked = np.empty((count, len(x)))
        for ci in range(count):
            d = drift[ci]
            moves = offsets[ci] - d
            if two_level and np.all(np.abs(moves - np.round(moves)) < 1e-9):
                moves = [int(m) for m in np.round(moves)]
                f = math.floor(d + 0.5)
                if abs(d - f) < 1e-9:
                    stacked[ci] = ref_expectation(values, probs, moves, f)
                    continue
                f = math.floor(d)
                w = d - f
                stacked[ci] = (1.0 - w) * ref_expectation(values, probs, moves, f) \
                    + w * ref_expectation(values, probs, moves, f + 1)
                continue
            acc = np.zeros(len(x))
            if two_level:
                for m, q in ref_weighted_terms(offsets[ci], probs):
                    acc += q * ref_clamped_int_shift(values, m)
            else:
                for aj, p in enumerate(probs):
                    acc += p * ref_shift(values, offsets[ci, aj])
            stacked[ci] = acc
        if record_policy:
            policy[step] = arg_best(stacked, axis=0)
        values = take_best(stacked, axis=0)
    root = float(values[len(x) // 2])
    return root, x, h, policy


# ---------------------------------------------------------------------------
# drawn problems
# ---------------------------------------------------------------------------

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
        # a hand-picked grid over the bounds instead of the model's set
        lo, hi = astuple(model.var_interval or model.mean_interval)
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


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_two_level_root_is_within_1e_12_of_the_per_atom_form(problem):
    model, phi, side, points, _, controls = problem
    root, _, _, _ = _backward_induction(model, phi, side, points, False,
                                        controls=controls)
    per_atom, _, _, _ = ref_backward_induction(model, phi, side, points, False,
                                               controls=controls,
                                               two_level=False)
    assert abs(root - per_atom) <= 1e-12


CRITERION_8_MEAN = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5),
                                                   1.0, 2000)


@pytest.mark.parametrize("side", ["sup", "inf"])
@pytest.mark.parametrize("model, points", [
    (CRITERION_8_MEAN, 4001),
    (CRITERION_8_MEAN, 2001),
    # off-lattice scale pairs: weighted groups that split every atom's move
    (RectangularModel.variance_uncertain(VarianceInterval(1.0, 1.37), 2000), 4001),
    (RectangularModel.variance_uncertain(VarianceInterval(1.0, math.sqrt(2.0)),
                                         2000), 4001),
], ids=["4001", "2001", "variance-1.37-4001", "variance-sqrt2-4001"])
def test_criterion_8_mean_roots_stay_within_1e_12_of_the_per_atom_form(
        side, model, points):
    phi = named_test_function("gauss")
    root, _, _, _ = _backward_induction(model, phi, side, points, False)
    per_atom, _, _, _ = ref_backward_induction(model, phi, side, points, False,
                                               two_level=False)
    assert abs(root - per_atom) <= 1e-12


@pytest.mark.parametrize("side", ["sup", "inf"])
@pytest.mark.parametrize("n, controls, groups", [(1, 400, 21), (3, 136, 21)])
def test_split_controls_a_whole_cell_apart_share_a_group(side, n, controls,
                                                         groups):
    # mean [-1e6, 1e6]: the drift of the exact set's inner controls is no
    # whole cell, and those whose split terms agree once their whole drift
    # is taken out share one expectation
    model = RectangularModel.mean_uncertain(MeanInterval(-1e6, 1e6), 1.0, n)
    x, _, offsets, drift = _dp_grid(model, 401)
    stencil = _lattice_stencil(offsets, drift, model.innovation.probs, len(x))
    assert (len(offsets), len(stencil)) == (controls, groups)
    assert len(stencil) < len(offsets)
    phi = named_test_function("gauss")
    root, _, _, policy = _backward_induction(model, phi, side, 401, True)
    ref_root, _, _, ref_policy = ref_backward_induction(model, phi, side, 401,
                                                        True)
    assert np.float64(root).tobytes() == np.float64(ref_root).tobytes()
    assert policy.dtype == ref_policy.dtype
    assert policy.tobytes() == ref_policy.tobytes()
