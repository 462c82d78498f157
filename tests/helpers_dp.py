"""Independent oracles for the adversarial DP tests, the innovation
law they draw besides Rademacher, and the fixture that makes measure_dp
fork for any work.

The oracles work on exact integer state lattices or explicit policy
enumeration and share no code with the production backward induction.
"""
import math
import os

import numpy as np
import pytest

from nlclt import measure_dp, split
from nlclt.classical import DiscreteLaw


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch):
    """split's callers forking for any work at measure_dp.FORK_MIN_WORK, as
    on two CPUs; yields the list of the fork calls' pids made in this
    process."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(measure_dp, "FORK_MIN_WORK", 1)
    monkeypatch.setattr(split, "_usable_cpus", lambda: {0, 1})
    return pids


def standardized_bernoulli(p):
    """Bernoulli(p) shifted and scaled to zero mean and unit variance."""
    law = DiscreteLaw.bernoulli(p)
    s = math.sqrt(p * (1.0 - p))
    return DiscreteLaw(values=tuple((v - p) / s for v in law.values),
                       probs=law.probs)



def lattice_tree_value(n, phi, side="sup", units=(1, 2)):
    """Exhaustive backward recursion over the exact innovation tree for the
    variance model with integer-related scales (default sigma in {1, 2}).

    States are tracked as exact integer sums of +-unit increments; the
    payoff is evaluated at s/sqrt(n).  Covers every one of the 2^n paths
    with per-path bang-bang controls chosen by backward recursion.
    """
    lo_u, hi_u = units
    half = hi_u * n
    s = np.arange(-half, half + 1, dtype=float) / math.sqrt(n)
    v = np.asarray(phi(s), dtype=float)
    better = np.maximum if side == "sup" else np.minimum
    for _ in range(n):
        c_lo = 0.5 * (v[hi_u + lo_u:-(hi_u - lo_u) or None] + v[hi_u - lo_u:-(hi_u + lo_u)])
        c_hi = 0.5 * (v[2 * hi_u:] + v[:-2 * hi_u])
        v = better(c_lo, c_hi)
    return float(v[len(v) // 2])


def lattice_tree_value_split(n, j, phi, side="sup", units=(1, 2)):
    """Same value computed in two pasted stages: steps n..j, then j..0."""
    lo_u, hi_u = units
    half = hi_u * n
    s = np.arange(-half, half + 1, dtype=float) / math.sqrt(n)
    v = np.asarray(phi(s), dtype=float)
    better = np.maximum if side == "sup" else np.minimum

    def stage(v, steps):
        for _ in range(steps):
            c_lo = 0.5 * (v[hi_u + lo_u:-(hi_u - lo_u) or None] + v[hi_u - lo_u:-(hi_u + lo_u)])
            c_hi = 0.5 * (v[2 * hi_u:] + v[:-2 * hi_u])
            v = better(c_lo, c_hi)
        return v

    middle = stage(v, n - j)   # value function at step j
    root = stage(middle, j)
    return float(root[len(root) // 2])


def lattice_tree_value_two_layer(n, phi, side="sup", units=(1, 2)):
    """Value with the adversary move and the innovation realization applied
    as two separate half-steps through an explicit (state, control) layer."""
    lo_u, hi_u = units
    half = hi_u * n
    s = np.arange(-half, half + 1, dtype=float) / math.sqrt(n)
    v = np.asarray(phi(s), dtype=float)
    better = np.maximum if side == "sup" else np.minimum
    for _ in range(n):
        # half-step B first (innovation), conditional on each frozen control
        w_lo = 0.5 * (v[hi_u + lo_u:-(hi_u - lo_u) or None] + v[hi_u - lo_u:-(hi_u + lo_u)])
        w_hi = 0.5 * (v[2 * hi_u:] + v[:-2 * hi_u])
        # half-step A (adversary chooses among the frozen-control values)
        v = better(w_lo, w_hi)
    return float(v[len(v) // 2])


def enumerate_adapted_policies_value(n, sigmas, phi, side="sup"):
    """Max/min of E[phi(S_n/sqrt n)] over ALL adapted bang-bang policies.

    A policy assigns one of two integer scales to every node of the binary
    innovation tree (2^(2^n - 1) policies); feasible for n <= 4.  Policies
    may react to every past innovation, so this is the genuinely adaptive
    adversary, not the nested DP recursion.
    """
    node_offsets = [0]
    for m in range(n):
        node_offsets.append(node_offsets[-1] + 2 ** m)
    total_nodes = node_offsets[-1]
    hi_u = max(sigmas)
    table_half = int(hi_u) * n
    grid = np.arange(-table_half, table_half + 1, dtype=float) / math.sqrt(n)
    payoff = np.asarray(phi(grid), dtype=float)  # indexed by s_int + table_half

    # per (path, step): tree node id and innovation sign
    paths = []
    for path in range(2 ** n):
        steps = []
        hist = 0
        for m in range(n):
            up = (path >> m) & 1
            steps.append((node_offsets[m] + hist, 1 if up else -1))
            hist = hist * 2 + up
        paths.append(steps)

    best = None
    scale = (int(sigmas[0]), int(sigmas[1]))
    for bits in range(2 ** total_nodes):
        total = 0.0
        for steps in paths:
            s_int = 0
            for node_id, sign in steps:
                s_int += sign * scale[(bits >> node_id) & 1]
            total += payoff[s_int + table_half]
        if best is None:
            best = total
        else:
            best = max(best, total) if side == "sup" else min(best, total)
    return best / 2 ** n


def integer_lattice_value(payoff, drifts, moves, probs, steps, side="sup"):
    """Game value from state 0 after `steps` steps on the integers: control c
    moves the state by drifts[c] + moves[c][a] with probability probs[a],
    and the adversary picks the control with the best expectation.

    payoff(s) is the terminal value at the integer s.  The recursion keeps
    exactly the states reachable from 0, so no grid edge is ever read.
    """
    reach = max(abs(d + m) for d, row in zip(drifts, moves) for m in row)
    pick = max if side == "sup" else min
    v = {s: payoff(s) for s in range(-steps * reach, steps * reach + 1)}
    for k in range(steps - 1, -1, -1):
        v = {s: pick(sum(p * v[s + d + m] for p, m in zip(probs, row))
                     for d, row in zip(drifts, moves))
             for s in range(-k * reach, k * reach + 1)}
    return v[0]


def mean_tree_value(n, phi, drifts, moves, probs, side="sup"):
    """Value of the mean game by brute force over every sequence of
    controls and atoms: a step adds drifts[c] + moves[a] with probability
    probs[a], and the payoff sees the sum of the n steps.

    No grid and no interpolation: the (controls x atoms)^n sums are formed
    in floating point, and the recursion expects over the last step's atom
    and picks the best control, n times back.
    """
    steps = np.add.outer(np.asarray(drifts, dtype=float),
                         np.asarray(moves, dtype=float))
    sums = np.zeros(())
    for _ in range(n):
        sums = np.add.outer(sums, steps)
    v = np.asarray(phi(sums.ravel()), dtype=float).reshape(sums.shape)
    best = np.max if side == "sup" else np.min
    for _ in range(n):
        v = best(v @ np.asarray(probs, dtype=float), axis=-1)
    return float(v)
