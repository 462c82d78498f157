"""The lower expectation is minus the upper expectation of the negated
payoff, E_inf[phi] = -E_sup[-phi], on every kernel that takes a side.

The G-heat march, the drift march and the lattice kernel each take the
side's pointwise extremum (numerics.side_extremum), and every other
operation of their steps commutes with negation.  So the identity holds
float for float: the tests compare with ==, under which a signed zero may
differ.  A kernel that swapped max and min for both sides would still
satisfy it, so each test also checks the order inf <= sup, which the
monotone schemes keep up to rounding.

Every drawn payoff is centred on 0, and its negation carries no shape, so
both are solved on the same domain.
"""
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nlclt.classical import DiscreteLaw
from nlclt.densities import MeanInterval, VarianceInterval
from nlclt.measure_dp import RectangularModel, _backward_induction
from nlclt.sublinear import (
    GMean,
    GVariance,
    HjbProblem,
    SShapeSpec,
    TestFunction,
    _plan,
    make_s_shaped,
    named_test_function,
    solve_g_expectation,
    solve_g_heat,
)

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
ROUNDING = 1e-13


def negated(phi):
    return TestFunction(rule=lambda y: -phi.rule(y), growth=phi.growth)


@st.composite
def centred_payoffs(draw, bounded_only):
    names = ["gauss", "gauss_half", "normal_cdf", "tanh", "clip_linear", "s_shape"]
    if not bounded_only:
        names += ["abs", "neg_abs"]
    name = draw(st.sampled_from(names))
    if name != "s_shape":
        return named_test_function(name)
    spec = SShapeSpec(phi1=named_test_function("tanh"), c=0.0,
                      theta=draw(st.floats(0.2, 1.0)))
    return make_s_shaped(spec, draw(st.sampled_from(["phi", "phibar"])))


def ordered_pair(lo, hi):
    """(a, b) with a <= b, equal about a third of the time."""
    value = st.floats(lo, hi, allow_nan=False)
    return st.one_of(value.map(lambda a: (a, a)),
                     st.tuples(value, value).map(lambda p: (min(p), max(p))))


def assert_grids_are_dual(inf, dual):
    """inf is the negation of dual: layers, root, range and gap."""
    assert np.array_equal(inf.x, dual.x)
    assert np.array_equal(inf.values, -dual.values)
    assert inf.u0 == -dual.u0
    assert (inf.min_seen, inf.max_seen) == (-dual.max_seen, -dual.min_seen)
    assert inf.richardson_gap == -dual.richardson_gap


def assert_marches_ordered(inf, sup):
    """Every stored layer of the fine and the coarse march of inf lies
    below that of sup, up to rounding."""
    for low, high in zip(inf, sup):
        scale = ROUNDING * max(1.0, float(np.abs(high.values[0]).max()))
        assert float(np.max(low.values - high.values)) <= scale


def assert_kernel_obeys_the_sides(generator, phi, halfwidth, solve, points):
    """The solve of each side is dual to the other's solve of -phi, and its
    marches are ordered."""
    inf, sup = (solve(generator.interval, phi, side, space_points=points,
                      domain_halfwidth=halfwidth) for side in ("inf", "sup"))
    dual_inf, dual_sup = (solve(generator.interval, negated(phi), side,
                                space_points=points, domain_halfwidth=halfwidth)
                          for side in ("inf", "sup"))
    assert_grids_are_dual(inf, dual_sup)
    assert_grids_are_dual(sup, dual_inf)
    plans = (_plan(HjbProblem(type(generator)(generator.interval, side), phi,
                              halfwidth), points, None)[0]
             for side in ("inf", "sup"))
    assert_marches_ordered(*((march(True), march(False)) for march in plans))


@SETTINGS
@given(st.data())
def test_g_heat_march(data):
    v = VarianceInterval(*data.draw(ordered_pair(0.5, 2.5)))
    phi = data.draw(centred_payoffs(bounded_only=False))
    assert_kernel_obeys_the_sides(GVariance(v), phi, None, solve_g_heat,
                                  data.draw(st.integers(5, 101)))


@SETTINGS
@given(st.data())
def test_drift_march(data):
    # the domain is fixed first, so that mu can be drawn as a fraction of
    # 1 / (2 dx): the drift march is monotone while |mu| * 2 * dx <= 1
    halfwidth = data.draw(st.floats(2.0, 12.0))
    points = data.draw(st.integers(5, 101))
    dx = 2.0 * halfwidth / (points - 1)
    low, high = data.draw(ordered_pair(-1.0, 1.0))
    m = MeanInterval(low / (2.0 * dx), high / (2.0 * dx))
    phi = data.draw(centred_payoffs(bounded_only=True))
    assert_kernel_obeys_the_sides(GMean(m), phi, halfwidth, solve_g_expectation,
                                  points)


INNOVATIONS = [DiscreteLaw.rademacher(),
               DiscreteLaw((-math.sqrt(2.0), 0.0, math.sqrt(2.0)), (0.25, 0.5, 0.25))]


@SETTINGS
@given(st.data())
def test_lattice_kernel(data):
    n = data.draw(st.integers(1, 30))
    innovation = data.draw(st.sampled_from(INNOVATIONS))
    if data.draw(st.booleans()):
        v = VarianceInterval(*data.draw(ordered_pair(0.5, 2.5)))
        model = RectangularModel.variance_uncertain(v, n, innovation)
    else:
        m = MeanInterval(*data.draw(ordered_pair(-1.0, 1.0)))
        model = RectangularModel.mean_uncertain(m, data.draw(st.floats(0.0, 2.0)),
                                                n, innovation)
    phi = data.draw(centred_payoffs(bounded_only=True))
    points = data.draw(st.integers(11, 201))

    def solve(payoff, side):
        root, _, _, policy = _backward_induction(model, payoff, side, points,
                                                 record_policy=True)
        return root, policy

    (inf, inf_policy), (sup, sup_policy) = (solve(phi, side) for side in ("inf", "sup"))
    dual_inf, dual_inf_policy = solve(negated(phi), "inf")
    dual_sup, dual_sup_policy = solve(negated(phi), "sup")
    assert inf == -dual_sup and sup == -dual_inf
    assert np.array_equal(inf_policy, dual_sup_policy)
    assert np.array_equal(sup_policy, dual_inf_policy)
    assert inf <= sup + ROUNDING
