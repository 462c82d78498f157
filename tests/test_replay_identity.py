"""Draw-for-draw guard for the categorical sampler and the policy replay.

``Categorical`` counts the cdf edges a uniform reaches instead of calling
``Generator.choice``; ``DiscreteLaw.draw`` and ``policy_simulate`` read
atoms at its indices, and ``policy_simulate`` writes every step into
preallocated buffers, and may walk half of its paths in a forked child
that skips the other half's uniforms with ``skip_uniforms``.  This file
requires the same draws and generator state as ``Generator.choice`` and
as drawing the skipped uniforms, and keeps a frozen copy of the earlier
replay (one ``gen.choice`` and fresh arrays per step) whose
``(estimate, stderr)`` the replay, serial or forked, must reproduce bit
for bit.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers_dp import assert_no_child_left, forked, standardized_bernoulli
from nlclt import measure_dp
from nlclt.classical import DiscreteLaw
from nlclt.densities import MeanInterval, VarianceInterval
from nlclt.errors import InvalidParams
from nlclt.measure_dp import (
    MEAN_KIND,
    VARIANCE_KIND,
    RectangularModel,
    policy_simulate,
    sup_expectation_dp,
)
from nlclt.numerics import Categorical, SeedSpec, generator, skip_uniforms
from nlclt.sublinear import SShapeSpec, make_s_shaped, named_test_function
from test_split import ForkProtocol

SEEDS = st.integers(0, 2**64 - 1)
STREAMS = st.integers(0, 2**20)


# ---------------------------------------------------------------------------
# categorical sampler against Generator.choice
# ---------------------------------------------------------------------------

@st.composite
def laws(draw):
    """1 to 5 atoms; some probabilities zero; normalised like user input."""
    k = draw(st.integers(1, 5))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                            min_size=k, max_size=k))
    if sum(weights) == 0.0:
        weights[draw(st.integers(0, k - 1))] = 1.0
    total = math.fsum(weights)
    return np.array([w / total for w in weights])


def assert_same_as_choice(probs, size, spec):
    atoms = np.linspace(-2.0, 3.0, len(probs))
    ref_gen, gen = generator(spec), generator(spec)
    expected = ref_gen.choice(atoms, size=size, p=probs)
    drawn = Categorical(probs, size).draw(gen)
    assert drawn.dtype == np.intp
    assert atoms[drawn].tobytes() == expected.tobytes()
    # both generators sit at the same point of the stream
    assert gen.random(3).tobytes() == ref_gen.random(3).tobytes()


def assert_law_draw_is_choice(probs, size, spec):
    atoms = np.linspace(-2.0, 3.0, len(probs))
    ref_gen, gen = generator(spec), generator(spec)
    expected = ref_gen.choice(atoms, size=size, p=probs)
    drawn = DiscreteLaw(atoms, probs).draw(gen, size)
    assert drawn.dtype == np.float64
    assert drawn.tobytes() == expected.tobytes()
    assert gen.random(3).tobytes() == ref_gen.random(3).tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(laws(), st.sampled_from([0, 1, 2, 7, 1000]), SEEDS, STREAMS)
def test_indices_and_state_match_generator_choice(probs, size, seed, stream):
    assert_same_as_choice(probs, size, SeedSpec(seed, stream))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(0.001, 0.999), SEEDS)
def test_bernoulli_matches_generator_choice(p, seed):
    assert_same_as_choice(np.array([1.0 - p, p]), 2000, SeedSpec(seed))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(laws(), st.sampled_from([0, 1, 2, 7, 1000]), SEEDS, STREAMS)
def test_law_draw_matches_generator_choice(probs, size, seed, stream):
    assert_law_draw_is_choice(probs, size, SeedSpec(seed, stream))


def test_law_draw_follows_the_stream():
    law = DiscreteLaw((0.5, 1.5, 3.0), (0.2, 0.5, 0.3))
    gen, ref_gen = generator(SeedSpec(4, 1)), generator(SeedSpec(4, 1))
    for size in (1, 300, 0, 300):
        expected = ref_gen.choice(np.array(law.values), size=size, p=law.probs)
        assert law.draw(gen, size).tobytes() == expected.tobytes()


def test_edges_of_zero_mass_are_never_chosen():
    probs = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
    index = Categorical(probs, 10_000).draw(generator(SeedSpec(5)))
    assert set(np.unique(index)) == {1, 3}
    assert_same_as_choice(probs, 10_000, SeedSpec(5))


def test_repeated_draws_follow_the_stream():
    probs = np.array([0.2, 0.3, 0.5])
    sampler = Categorical(probs, 500)
    gen, ref_gen = generator(SeedSpec(9, 2)), generator(SeedSpec(9, 2))
    for _ in range(5):
        expected = ref_gen.choice(3, size=500, p=probs)
        assert np.array_equal(sampler.draw(gen), expected)


# DiscreteLaw checks the probabilities that Categorical and draw then use
@pytest.mark.parametrize("probs", [[], [[0.5, 0.5]], [0.5, -0.1, 0.6], [0.5, 0.4],
                                   [0.5, math.nan], [math.inf, 0.0]])
def test_invalid_probabilities_are_rejected(probs):
    with pytest.raises(InvalidParams):
        DiscreteLaw(tuple(range(len(probs))), probs)


def test_atoms_must_match_probabilities():
    with pytest.raises(InvalidParams):
        DiscreteLaw([1.0, 2.0, 3.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# skipping uniforms against drawing them
# ---------------------------------------------------------------------------

def state_bytes(gen):
    """The bit generator's whole state (counter, key, buffer, its position
    and the 32-bit carry) as comparable bytes."""
    def flat(state):
        return {k: flat(v) if isinstance(v, dict) else np.asarray(v).tobytes()
                for k, v in state.items()}
    return flat(gen.bit_generator.state)


@pytest.mark.parametrize("drawn", [0, 1, 2, 3], ids=lambda d: f"{d}-drawn")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS, stream=STREAMS, k=st.integers(0, 100_000))
def test_skip_is_drawing(drawn, seed, stream, k):
    # drawn words of Philox's 4-word block are used up before the skip
    spec = SeedSpec(seed, stream)
    gen, ref_gen = generator(spec), generator(spec)
    gen.random(drawn)
    ref_gen.random(drawn)
    skip_uniforms(gen, k)
    ref_gen.random(k)
    assert state_bytes(gen) == state_bytes(ref_gen)
    assert gen.random(9).tobytes() == ref_gen.random(9).tobytes()


# ---------------------------------------------------------------------------
# frozen allocating replay
# ---------------------------------------------------------------------------

def ref_policy_simulate(model, policy, phi, reps, spec):
    gen = generator(spec)
    atoms = np.asarray(model.innovation.values, dtype=float)
    probs = np.asarray(model.innovation.probs, dtype=float)
    cvals = np.asarray(policy.control_values, dtype=float)
    points = policy.controls.shape[1]
    x = np.zeros(reps)
    rtn = math.sqrt(model.n)
    k = model.mean_step_scale() if model.kind == MEAN_KIND else 0.0
    for step in range(model.n):
        idx = np.clip(np.rint((x - policy.x0) / policy.h).astype(int),
                      0, points - 1)
        chosen = cvals[policy.controls[step][idx]]
        eps = gen.choice(atoms, size=reps, p=probs)
        if model.kind == VARIANCE_KIND:
            x = x + chosen * eps / rtn
        else:
            x = x + chosen / model.n + k * eps
    vals = phi(x)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return est, se


@st.composite
def standardized_laws(draw):
    """laws() with mass on two atoms or more (a law with one has no
    variance), at distinct integer values, shifted and scaled to zero mean
    and unit variance."""
    probs = draw(laws().filter(lambda p: np.count_nonzero(p) >= 2))
    values = np.array(draw(st.lists(st.integers(-3, 3), min_size=len(probs),
                                    max_size=len(probs), unique=True)), float)
    values -= probs @ values
    return DiscreteLaw(tuple(values / math.sqrt(probs @ values**2)), tuple(probs))


BERNOULLI_LAWS = st.one_of(st.just(DiscreteLaw.rademacher()),
                           st.floats(0.01, 0.99).map(standardized_bernoulli))


@st.composite
def replays(draw, laws=BERNOULLI_LAWS, reps=(1, 2, 1000)):
    n = draw(st.integers(1, 12))
    law = draw(laws)
    if draw(st.booleans()):
        lo = draw(st.sampled_from([0.5, 1.0]))
        ratio = draw(st.sampled_from([1.0, 2.0, math.sqrt(2.0)]))
        model = RectangularModel.variance_uncertain(
            VarianceInterval(lo, lo * ratio), n, innovation=law)
    else:
        mu_low = draw(st.floats(-1.0, 0.0))
        mu_high = draw(st.floats(0.0, 1.0))
        sigma = draw(st.sampled_from([0.5, 1.0, 3.0]))
        model = RectangularModel.mean_uncertain(MeanInterval(mu_low, mu_high),
                                                sigma, n, innovation=law)
    name = draw(st.sampled_from(["gauss", "tanh", "normal_cdf", "s_shape"]))
    if name == "s_shape":
        phi = make_s_shaped(SShapeSpec(phi1=named_test_function("tanh"), c=0.2,
                                       theta=0.5), "phibar")
    else:
        phi = named_test_function(name)
    side = draw(st.sampled_from(["sup", "inf"]))
    reps = draw(st.sampled_from(reps))
    spec = SeedSpec(draw(SEEDS), draw(STREAMS))
    return model, phi, side, reps, spec


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(replays())
def test_replay_is_bit_identical(case):
    model, phi, side, reps, spec = case
    _, policy = sup_expectation_dp(model, phi, side)
    got = policy_simulate(model, policy, phi, reps, spec)
    ref = ref_policy_simulate(model, policy, phi, reps, spec)
    assert np.array(got).tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("model", [
    RectangularModel.mean_uncertain(MeanInterval(-0.3, 0.9), 1.0, 30),
    RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 30,
                                    innovation=standardized_bernoulli(0.3)),
    RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 30),
    RectangularModel.variance_uncertain(VarianceInterval(0.5, 0.5 * math.sqrt(2.0)), 30,
                                        innovation=standardized_bernoulli(0.7)),
], ids=["mean", "mean-bernoulli", "variance", "variance-bernoulli"])
@pytest.mark.parametrize("side", ["sup", "inf"])
def test_replay_is_bit_identical_at_larger_n(model, side):
    # enough steps and paths that any change in rounding order shows
    phi = named_test_function("gauss")
    _, policy = sup_expectation_dp(model, phi, side)
    spec = SeedSpec(2024, 3)
    got = policy_simulate(model, policy, phi, 5000, spec)
    assert np.array(got).tobytes() == \
        np.array(ref_policy_simulate(model, policy, phi, 5000, spec)).tobytes()


class TestForkedReplay(ForkProtocol):
    """policy_simulate's paths split over one forked child; the fork
    protocol comes from ForkProtocol (test_split.py)."""

    hot = (measure_dp, "_replay_paths")
    threshold = (measure_dp, "FORK_MIN_WORK")

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(case=replays(laws=st.one_of(BERNOULLI_LAWS, standardized_laws()),
                        reps=(2, 3, 1000, 1001)))
    def test_forked_replay_is_bit_identical(self, monkeypatch, forked, case):
        model, phi, side, reps, spec = case
        _, policy = sup_expectation_dp(model, phi, side, check_points=None)
        forks = len(forked)
        got = policy_simulate(model, policy, phi, reps, spec)
        assert len(forked) == forks + 1
        assert_no_child_left()
        with monkeypatch.context() as patch:
            patch.setattr(measure_dp, "FORK_MIN_WORK", math.inf)
            serial = policy_simulate(model, policy, phi, reps, spec)
        assert len(forked) == forks + 1
        ref = ref_policy_simulate(model, policy, phi, reps, spec)
        assert np.array(got).tobytes() == np.array(serial).tobytes()
        assert np.array(got).tobytes() == np.array(ref).tobytes()

    def case(self, n=20, reps=1001):
        """(the replay, the frozen replay), each as the bytes of
        (estimate, stderr)."""
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), n)
        phi = named_test_function("gauss")
        _, policy = sup_expectation_dp(model, phi, "sup")

        def run(replay):
            return lambda: np.array(
                replay(model, policy, phi, reps, SeedSpec(11, 2))).tobytes()

        return run(policy_simulate), run(ref_policy_simulate)

    def below(self):
        # the CLI defaults, n = 100 and reps = 1e4: 500 thousand path steps
        return self.case(100, 10_000)

    def test_work_is_half_the_paths_times_n(self, monkeypatch, forked):
        # reps // 2 * n path steps against FORK_MIN_WORK: 99 x 10, then 100 x 10
        monkeypatch.setattr(measure_dp, "FORK_MIN_WORK", 1000)
        for reps, forks in ((199, 0), (200, 1)):
            simulate, ref = self.case(n=10, reps=reps)
            assert simulate() == ref()
            assert len(forked) == forks
        assert_no_child_left()
