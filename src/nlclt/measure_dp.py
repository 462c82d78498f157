"""Adversarial dynamic programming over rectangular sets of measures.

Computes sup/inf expectations of the scaled statistics at finite n by
backward induction on a statistic grid, with the adversary choosing the
conditional mean (from its exact control set on the lattice, see
RectangularModel.controls) or the conditional scale (bang-bang) at every
step.  For rationally related scales the grid is snapped so that every
innovation shift lands exactly on grid points and the induction is
exact-on-grid.

The lattice section owns the one backward-induction kernel; the PDE
module's lattice oracle calls it too.  The kernel works on two levels:
each step forms one expectation per group of weighted whole-cell moves,
and each control reads its group at its whole-cell drift f.  A control
whose innovation moves are whole cells groups its atoms' moves and reads
them at its drift (a view at f, else interpolated between f and f + 1);
any other control splits each atom's summed offset between two cells,
takes f out of those cells and reads them at f.  Controls whose terms
then agree share one expectation.  A step takes each control once and
folds its row into the running best, so memory does not grow with the
interpolated controls.

convergence_experiment checks each fine root against a coarser lattice
only where one of the two lattices interpolates.  It may solve half of its
lattices, and policy_simulate may walk half of its paths, in one forked
child (see split).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

import numpy as np

# sublinear imports this module too: each reads the other's names at call time
from . import split, sublinear
from .classical import DiscreteLaw
from .densities import (
    MEAN_FAMILY,
    VARIANCE_FAMILY,
    MeanInterval,
    VarianceInterval,
    density_integral,
    select_mean_limit_params,
    select_variance_limit_params,
)
from .errors import GridTooCoarse, InvalidParams, PolicyMismatch, UnsupportedCombination
from .numerics import (Categorical, SeedSpec, generator, side_extremum,
                       skip_uniforms)

if TYPE_CHECKING:
    from .sublinear import TestFunction

MEAN_KIND = "mean_uncertain"
VARIANCE_KIND = "variance_uncertain"
DEFAULT_GRID_POINTS = 4001
COARSE_GRID_POINTS = 2001
INTERP_TOLERANCE = 1e-3
# A solved lattice resolves the step: its widest control's smallest nonzero
# innovation move spans at least this many cells.  The criterion-8 and
# benchmark lattices give 3 to 445 cells, the brute-force-checked mean games
# 1; mean [-1e6, 1e6] at n = 1 gave 0.002 and a value of 0.998 for 0.5.
MIN_MOVE_CELLS = 0.5
# A lattice snaps to shifts whose ratios are fractions of at most this
# denominator (to this tolerance), by refining the target spacing at most
# SNAP_REFINE_CAP times: a tiny shift would ask for an unbounded grid.
SNAP_DENOMINATOR_CAP = 64
SNAP_REL_TOL = 1e-9
SNAP_REFINE_CAP = 16
# split._run runs a child only for at least this much work in the
# child's half: cell-steps (n x grid points) of convergence_experiment's
# solves, about 20 ms at 4.5 ns per cell-step; path steps (paths x n) of
# policy_simulate, about 80 ms at 20 ns per path step; or cell-steps of a
# PDE solve's coarse march (steps x points, 5 to 9 ns each) plus its
# lattice oracle's (steps x target points).  A criterion-6 solve with
# 2000 oracle steps gives its child 1.1e7 to 1.2e7; a 201-point solve
# with 200 oracle steps, about 8e5, stays serial.  A fork, its pipe and
# its reaping cost about 2 ms (2-vCPU x86-64 VM)
FORK_MIN_WORK = 4_000_000


@dataclass(frozen=True)
class RectangularModel:
    """Discrete-time model with an adversary ranging over a rectangular set.

    mean_uncertain:     X_i = mu_i + sigma * eps_i,  mu_i in [mu_low, mu_high]
    variance_uncertain: X_i = sigma_i * eps_i,       sigma_i in {sig_low, sig_high}

    eps_i are iid draws from a finite zero-mean unit-variance innovation law.
    A mean model's step moves its statistic by mu_i/n plus
    mean_step_scale() * eps_i.  sigma may be 0: the step is then
    mu_i/n + eps_i/sqrt(n) exactly, the lattice of the drift equation that
    sublinear.tree_value_oracle runs.
    """

    kind: str
    n: int
    mean_interval: Optional[MeanInterval] = None
    sigma: float = 1.0
    var_interval: Optional[VarianceInterval] = None
    innovation: DiscreteLaw = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.kind not in (MEAN_KIND, VARIANCE_KIND):
            raise InvalidParams(f"unknown model kind {self.kind!r}")
        if self.n < 1:
            raise InvalidParams("n must be a positive integer")
        if self.innovation is None:
            object.__setattr__(self, "innovation", DiscreteLaw.rademacher())
        if abs(self.innovation.mean()) > 1e-12:
            raise InvalidParams("innovation law must have zero mean")
        if abs(self.innovation.variance() - 1.0) > 1e-12:
            raise InvalidParams("innovation law must have unit variance")
        if self.kind == MEAN_KIND:
            if self.mean_interval is None:
                raise InvalidParams("mean_uncertain model needs a MeanInterval")
            if not 0.0 <= self.sigma < math.inf:
                raise InvalidParams("sigma must be finite and >= 0")
            # the Lindeberg masses square each step mu + sigma * eps
            m = self.mean_interval
            steps = [mu + self.sigma * e for mu in (m.mu_low, m.mu_high)
                     for e in self.innovation.values]
            if not all(math.isfinite(s * s) for s in steps):
                raise InvalidParams(
                    f"mean model needs a finite squared step mu + sigma * eps, "
                    f"got sigma = {self.sigma} on [{m.mu_low}, {m.mu_high}]")
        else:
            if self.var_interval is None:
                raise InvalidParams("variance_uncertain model needs a VarianceInterval")

    @classmethod
    def mean_uncertain(cls, m: MeanInterval, sigma: float, n: int,
                       innovation: Optional[DiscreteLaw] = None) -> "RectangularModel":
        return cls(kind=MEAN_KIND, n=n, mean_interval=m, sigma=sigma,
                   innovation=innovation)

    @classmethod
    def variance_uncertain(cls, v: VarianceInterval, n: int,
                           innovation: Optional[DiscreteLaw] = None) -> "RectangularModel":
        return cls(kind=VARIANCE_KIND, n=n, var_interval=v, innovation=innovation)

    def halfwidth(self) -> float:
        return sublinear.default_halfwidth(
            self.var_interval if self.kind == VARIANCE_KIND else self.mean_interval)

    def controls(self, h: Optional[float] = None) -> np.ndarray:
        """The adversary's control set: the two scales (bang-bang), or, on
        a lattice of spacing h, the mean bounds and every mu between them
        at which some atom's move (mu/n + k*eps)/h is a whole number of
        cells (k = mean_step_scale()).  The kernel interpolates each move
        between two cells, so a row is linear in mu between these points
        and its max and min over [mu_low, mu_high] sit at one of them.  On
        a snapped lattice every k*eps is whole, and the inner points are
        the whole-cell drifts.
        """
        if self.kind == VARIANCE_KIND:
            return np.array([self.var_interval.sigma_low,
                             self.var_interval.sigma_high])
        lo, hi = self.mean_interval.mu_low, self.mean_interval.mu_high
        cell = self.n * h  # the mu that drifts one cell
        mus = [[lo, hi]]
        for move in self.mean_step_scale() * np.asarray(self.innovation.values) / h:
            # mu/(n h) + move is whole where mu/(n h) + w is
            w = _cell_split(float(move))[1] or 0.0
            j = np.arange(math.floor(lo / cell + w), math.ceil(hi / cell + w) + 1)
            mus.append((j - w) * cell)
        mus = np.concatenate(mus)
        return np.unique(mus[(mus >= lo) & (mus <= hi)])

    def mean_step_scale(self) -> float:
        """Coefficient of one innovation in the folded scalar statistic."""
        return self.sigma / self.n + 1.0 / math.sqrt(self.n)


@dataclass(frozen=True)
class AdversaryPolicy:
    """Recorded argmax/argmin control index per (step, grid point)."""

    kind: str
    side: str
    n: int
    x0: float
    h: float
    control_values: tuple
    controls: np.ndarray  # shape (n, points): int8 up to 128 controls, else wider


# ---------------------------------------------------------------------------
# lattice backward induction (also run by sublinear.tree_value_oracle)
# ---------------------------------------------------------------------------

def _lattice_spacing(shifts: np.ndarray, halfwidth: float,
                     target_points: int) -> float:
    """The target spacing 2 * halfwidth / (target_points - 1), refined so
    that every |shift| is an exact integer multiple where that can be done.

    That needs the pairwise shift ratios to be rational with denominator at
    most SNAP_DENOMINATOR_CAP (covers every rationally related scale pair),
    and the spacing to be at least the target's over SNAP_REFINE_CAP.
    """
    h_target = 2.0 * halfwidth / (target_points - 1)
    mags = np.unique(np.abs(shifts[shifts != 0.0]))
    if len(mags) == 0:
        return h_target
    unit = float(mags[0])
    denominators = []
    for d in mags:
        frac = Fraction(float(d) / unit).limit_denominator(SNAP_DENOMINATOR_CAP)
        if abs(float(d) / unit - frac) > SNAP_REL_TOL:
            return h_target
        denominators.append(frac.denominator)
    base = math.lcm(*denominators)
    mult = max(1, math.ceil(unit / (base * h_target)))
    h = unit / (base * mult)
    return h if h * SNAP_REFINE_CAP >= h_target else h_target


def _dp_grid(model: RectangularModel, target_points: int,
             controls: Optional[np.ndarray] = None,
             halfwidth: Optional[float] = None):
    """Statistic grid through 0 covering [-halfwidth, halfwidth] (by default
    the model's), and cell offsets.

    Returns (x, h, offsets[controls, atoms], drift[controls]), by default
    for the model's control set at h: a step moves by a control's drift
    (mu/n, or 0 for a scale) plus its innovation move
    (k*eps or sigma*eps/sqrt(n)); offsets are the two summed, in cells,
    and drift is the drift in cells, neither rounded (the kernel's
    _cell_split says which are whole cells).  The target spacing
    2 * halfwidth / (target_points - 1) is refined, where the ratios allow,
    so that every innovation move is a whole number of cells; the mean
    model's small mu/n drift is then read off each step's innovation
    expectation by interpolation, which stops the fixed-weight
    interpolation bias from accumulating over n steps.
    """
    if target_points < 3:
        raise InvalidParams(f"grid_points must be >= 3, got {target_points}")
    if halfwidth is None:
        halfwidth = model.halfwidth()
    atoms = np.asarray(model.innovation.values, dtype=float)
    if model.kind == VARIANCE_KIND:
        if controls is None:
            controls = model.controls()
        moves = np.array([[sig * v / math.sqrt(model.n) for v in atoms]
                          for sig in controls])
        h = _lattice_spacing(moves, halfwidth, target_points)
        drift = np.zeros(len(controls))
    else:
        # every mean control moves the atoms alike, so h comes first
        moves = model.mean_step_scale() * atoms
        h = _lattice_spacing(moves, halfwidth, target_points)
        if controls is None:
            controls = model.controls(h)
        drift = np.asarray(controls, dtype=float) / model.n
        moves = np.tile(moves, (len(controls), 1))
    half_cells = math.ceil(halfwidth / h)
    x = (np.arange(-half_cells, half_cells + 1)) * h
    return x, h, (drift[:, None] + moves) / h, drift / h


def _cell_split(offset: float):
    """(m, None) for an offset within 1e-9 of the integer m, else
    (floor(offset), offset - floor(offset)): the cell and the weight of
    the next one."""
    m = math.floor(offset + 0.5)
    if abs(offset - m) < 1e-9:
        return m, None
    m = math.floor(offset)
    return m, offset - m


def _lattice_stencil(offsets: np.ndarray, drift: np.ndarray, probs,
                     points: int) -> list:
    """How `_lattice_induction` forms each control's expectation: one
    (terms, reach, members) group per distinct set of weighted cell moves.

    The group's expectation E = sum over its terms (m, q) of q * V[i + m]
    is formed once per step over `reach` cells past both ends; each member
    (control, f, w) reads it at its drift in cells: the view E[i + f] when
    w is None, else (1 - w) * E[i + f] + w * E[i + f + 1].  Every control
    reads at its whole-cell drift f = _cell_split(drift)[0].  A control
    whose innovation moves are whole cells has the terms (move, p) of its
    atoms and reads them at (f, w) for its drift's weight w; any other
    control splits each atom's summed offset between its two cells,
    (m, p * (1 - v)) and (m + 1, p * v), moves each cell back by f and
    reads its terms at (f, None).  Splitting the summed offset, not the
    offset less f, keeps every weight's bits.  Controls whose terms agree
    share one group.  Every shift is clamped to the cells that can still
    reach the grid.
    """
    groups = {}
    for c, (row, d) in enumerate(zip(offsets, drift)):
        moves = row - d
        f, w = _cell_split(d)
        if all(_cell_split(move)[1] is None for move in moves):
            cells, back = moves, 0
        else:
            # the full offsets, so that each split weight keeps its bits
            cells, back, w = row, f, None
        terms = []
        for off, p in zip(cells, probs):
            m, v = _cell_split(off)
            m -= back
            terms += [(m, float(p))] if v is None else \
                [(m, float(p * (1.0 - v))), (m + 1, float(p * v))]
        groups.setdefault(tuple(terms), []).append((c, f, w))
    stencil = []
    for terms, members in groups.items():
        reach = max(max(abs(f), 0 if w is None else abs(f + 1))
                    for _, f, w in members)
        limit = points - 1 + reach
        stencil.append((tuple((max(-limit, min(limit, m)), q) for m, q in terms),
                        reach, members))
    return stencil


def _lattice_induction(terminal: np.ndarray, offsets: np.ndarray,
                       drift: np.ndarray, probs, steps: int, side: str,
                       record_policy: bool):
    """Middle-point value and (optionally) the policy table after
    `steps` adversarial steps back from the terminal values on a grid: per
    point, the control c (moving offsets[c, a] cells on atom a, drift[c]
    cells of that its drift) with the best expectation over the atoms
    (weights probs), the largest for side "sup", the least for "inf".

    The values live in the middle of one buffer whose margins repeat the
    end values, so the clamped shift by m cells is a fixed view of that
    buffer.  Every view and every weight (a 0-d array) is bound once per
    induction, so a step only refreshes the margins and fills preallocated
    rows with ufunc calls, on two levels (see _lattice_stencil).  Group
    level: q * V once per distinct weight q over the whole buffer, and per
    group E = sum over its terms of (q * V)[i + m], a sum of views.
    Control level: one pass in control order, each row a view of E at a
    whole-cell drift, else (1 - w) * E[i + f] + w * E[i + f + 1] in one of
    two scratch rows, folded into the running best once formed: rows read
    E, not V, and memory does not grow with the interpolated controls.
    """
    points = len(terminal)
    stencil = _lattice_stencil(offsets, drift, probs, points)
    pad = max(reach + max(abs(m) for m, _ in terms) for terms, reach, _ in stencil)
    padded = np.empty(points + 2 * pad)
    values = padded[pad:pad + points]
    # 0.0 + v: with no -0.0 in V (no row makes one, short of an underflow)
    # each group sum has the bits of the same sum started from 0.0
    np.add(terminal, 0.0, out=values)
    head, tail = padded[:pad], padded[pad + points:]
    first, last = values[:1], values[-1:]
    # the first control's row (the first fold reads it) and every later one's
    scratch = (np.empty(points), np.empty(points))
    # per control: (E[i + f], None), or its scratch row and the reads of
    # (1 - w) * E[i + f] + w * E[i + f + 1]
    reads = [None] * len(offsets)
    products = {}  # q -> (q as a 0-d array, q * padded)
    sums = []      # per group: (E, its term views)
    for terms, reach, members in stencil:
        width = points + 2 * reach
        expectation = np.empty(width)
        views = []
        for m, q in terms:
            _, product = products.setdefault(q, (np.array(q), np.empty(len(padded))))
            views.append(product[pad - reach + m:pad - reach + m + width])
        sums.append((expectation, views))

        def at(f):
            return expectation[reach + f:reach + f + points]

        for c, f, w in members:
            reads[c] = (at(f), None) if w is None else \
                (scratch[c > 0], (at(f), at(f + 1), np.array(1.0 - w), np.array(w)))
    upper = np.empty(points)
    best = side_extremum(side)
    # int8 while it holds every control index
    policy = np.empty((steps, points), dtype=np.min_scalar_type(-len(reads))) \
        if record_policy else None
    beats = np.greater if side == "sup" else np.less
    wins = np.empty(points, dtype=bool)
    if record_policy:
        # control k marks the points it wins with k (a 0-d array of the
        # table's type, so the product is the table's type, unmasked)
        marks = [np.array(k, dtype=policy.dtype) for k in range(len(reads))]
        marked = np.empty(points, dtype=policy.dtype)
    copyto, multiply, add, maximum = np.copyto, np.multiply, np.add, np.maximum
    for step in range(steps - 1, -1, -1):
        copyto(head, first)
        copyto(tail, last)
        for q, product in products.values():
            multiply(padded, q, product)
        for expectation, views in sums:
            add(views[0], views[1], expectation)
            for view in views[2:]:
                add(expectation, view, expectation)
        if record_policy:
            chosen = policy[step]
            chosen.fill(0)
        # the pointwise best over the rows in control order, as np.max/np.min
        # over them stacked would reduce
        for k, (row, interpolated) in enumerate(reads):
            if interpolated is not None:
                lower, higher, w_lower, w = interpolated
                multiply(lower, w_lower, row)
                multiply(higher, w, upper)
                add(row, upper, row)
            if k:
                if record_policy:
                    # only a row strictly past the best so far takes the
                    # point: np.argmax's first index for non-NaN rows.  As
                    # chosen < k here, max(chosen, wins * k) writes k where
                    # the row wins and keeps chosen elsewhere
                    beats(row, running, out=wins)
                    multiply(wins, marks[k], marked)
                    maximum(chosen, marked, out=chosen)
                best(running, row, out=values)
            running = values if k else row
        if running is not values:  # a lone control
            copyto(values, running)
    return float(values[points // 2]), policy


def _backward_induction(model: RectangularModel, phi: TestFunction, side: str,
                        target_points: int, record_policy: bool,
                        controls: Optional[np.ndarray] = None,
                        halfwidth: Optional[float] = None):
    """Root value, grid, spacing and (optionally) the policy table, from
    the lattice kernel on the model's grid, shifts and control set."""
    grid = _dp_grid(model, target_points, controls, halfwidth)
    root, policy = _solve(model, phi, side, grid, record_policy)
    return root, grid[0], grid[1], policy


def _solve(model: RectangularModel, phi: TestFunction, side: str, grid,
           record_policy: bool = False):
    """Root value and policy table (or None) of the lattice kernel on a
    _dp_grid lattice (x, h, offsets, drift) of the model."""
    x, _, offsets, drift = grid
    probs = np.asarray(model.innovation.probs, dtype=float)
    return _lattice_induction(phi(x), offsets, drift, probs, model.n, side,
                              record_policy)


def _interpolates(grid) -> bool:
    """Whether the kernel interpolates on a _dp_grid lattice: some summed
    offset or drift is not a whole number of cells by _cell_split's rule.
    Where every one is whole, each group's terms and each control's read
    are whole-cell views, and no weight splits a move."""
    _, _, offsets, drift = grid
    return any(_cell_split(float(cells))[1] is not None
               for cells in np.concatenate([offsets.ravel(), drift]))


def _refinement_grids(model: RectangularModel, target_points: int,
                      check_points: Optional[int]) -> list:
    """The fine lattice, and the check_points lattice after it where either
    of them interpolates.  On two exact lattices the kernel reads phi at
    the same reachable points through whole-cell moves, so the roots agree
    to rounding (the abscissae j * h round differently on the two
    spacings) and the refinement check has nothing to see; the
    check_points lattice is still built, which validates it.  Each
    returned lattice must resolve the step (_check_resolution), and a
    check lattice that snaps to the fine lattice's spacing is refused
    with GridTooCoarse: its root would be the fine root itself, and the
    check could not see an interpolated drift's error."""
    fine = _dp_grid(model, target_points)
    grids = [fine]
    if check_points is not None:
        coarse = _dp_grid(model, check_points)
        if _interpolates(fine) or _interpolates(coarse):
            grids.append(coarse)
    for grid in grids:
        _check_resolution(model.n, grid)
    if len(grids) == 2 and grids[1][1] == fine[1]:
        raise GridTooCoarse(
            f"the DP lattice interpolates at n = {model.n}, and its "
            f"{check_points}-point check lattice snaps to the same spacing "
            f"{fine[1]:.6g} as the {target_points}-point one, so the "
            "refinement check cannot see the interpolation error")
    return grids


def _check_resolution(n: int, grid) -> None:
    """GridTooCoarse when the lattice's spacing exceeds 1/MIN_MOVE_CELLS
    times the step's smallest nonzero innovation move, taken at the control
    whose smallest move is largest (a variance model's sigma_high).  The
    drift mu/n does not count: the kernel interpolates it by design."""
    x, h, offsets, drift = grid
    moves = np.abs(offsets - drift[:, None])
    cells = np.where(moves > 0, moves, np.inf).min(axis=1).max()
    if cells < MIN_MOVE_CELLS:
        raise GridTooCoarse(
            f"the DP lattice's spacing {h:.6g} is more than "
            f"{1 / MIN_MOVE_CELLS:g} times the step's smallest innovation move "
            f"{cells * h:.6g} at n = {n} ({len(x)} grid points)")


def _check_refinement(n: int, grids, root: float, coarse_root: float) -> None:
    """GridTooCoarse when the fine and coarse roots differ by more than
    INTERP_TOLERANCE."""
    gap = abs(root - coarse_root)
    if gap > INTERP_TOLERANCE:
        raise GridTooCoarse(
            f"grid refinement changes the DP value at n = {n} by {gap:.2e} "
            f"> {INTERP_TOLERANCE} ({len(grids[0][0])} against "
            f"{len(grids[1][0])} grid points)")


def check_dp_inputs(phi: TestFunction) -> None:
    """The adversarial DP's precondition on its payoff (the kernel checks the side)."""
    if phi.growth != "bounded_with_limits":
        raise InvalidParams("the adversarial DP needs a bounded payoff")


def sup_expectation_dp(model: RectangularModel, phi: TestFunction, side: str,
                       target_points: int = DEFAULT_GRID_POINTS,
                       check_points: Optional[int] = COARSE_GRID_POINTS):
    """Adversarial value of E[phi(statistic)] and the achieving policy.

    The policy table (n x grid points, int8 up to 128 controls) is
    recorded only on this path;
    convergence_experiment, which needs only values, skips it.  A
    refinement check re-solves on the coarser check_points grid and raises
    GridTooCoarse when the two roots differ by more than 1e-3; the coarse
    root only gates, it is not extrapolated with the fine one, and is then
    discarded.  The re-solve runs only where the fine or the coarse lattice
    interpolates: on two exact lattices it would check nothing.  Pass
    check_points=None to skip the check.
    """
    check_dp_inputs(phi)
    grids = _refinement_grids(model, target_points, check_points)
    root, policy = _solve(model, phi, side, grids[0], record_policy=True)
    if len(grids) == 2:
        _check_refinement(model.n, grids, root,
                          _solve(model, phi, side, grids[1])[0])
    x, h, _, _ = grids[0]
    return root, AdversaryPolicy(kind=model.kind, side=side, n=model.n,
                                 x0=float(x[0]), h=h,
                                 control_values=tuple(model.controls(h)),
                                 controls=policy)


def lindeberg_condition_value(model: RectangularModel, eps: float) -> float:
    """(1/n) sum_i sup over controls of E[|X_i|^2 1{|X_i| > t}], with
    t = sqrt(n eps), at n = model.n.

    Exact over the innovation support and the whole control range, and
    identical across steps, so the average equals the per-step worst case.
    Every |X| grows with the scale, so a scale model's worst is sigma_high.
    A mean model's atom X = mu + sigma*eps adds X^2 on the open set of mu
    where |X| > t, so the mass is convex in mu between the cuts where some
    atom's |X| reaches t, and can peak inside the interval.  Its sup is
    the largest of the bounds' values and the one-sided limits at the
    bounds and those cuts: each atom counts where it is on from that side.
    """
    if not eps > 0:
        raise InvalidParams("eps must be > 0")
    threshold = math.sqrt(model.n * eps)
    atoms = np.asarray(model.innovation.values, dtype=float)
    probs = np.asarray(model.innovation.probs, dtype=float)
    if model.kind == VARIANCE_KIND:
        lo = hi = 0.0
        moves = model.var_interval.sigma_high * atoms
    else:
        lo, hi = model.mean_interval.mu_low, model.mean_interval.mu_high
        moves = model.sigma * atoms

    def mass(mu, on):
        xs = mu + moves
        return float(np.dot(probs, np.where(on, xs * xs, 0.0)))

    worst = max(mass(mu, np.abs(mu + moves) > threshold) for mu in (lo, hi))
    # atom a is on for mu past its cuts: mu > up[a] or mu < down[a]
    up, down = threshold - moves, -threshold - moves
    cuts = np.concatenate([up, down])
    for mu in np.concatenate([[lo], cuts[(cuts > lo) & (cuts < hi)], [hi]]):
        if mu < hi:  # from the right
            worst = max(worst, mass(mu, (mu >= up) | (mu < down)))
        if mu > lo:  # from the left
            worst = max(worst, mass(mu, (mu > up) | (mu <= down)))
    return worst


def _explicit_limit(model: RectangularModel, phi: TestFunction,
                    side: str) -> float:
    """Limit value from the explicit density when the payoff meets the
    theorem's hypotheses, otherwise from the PDE solver of the side.

    A variance model's S-shaped payoff qualifies only when its theta is the
    interval's sigma_low / sigma_high."""
    shape = phi.shape
    if model.kind == MEAN_KIND:
        if shape is not None and shape.symmetric and shape.monotone_right:
            params = select_mean_limit_params(model.mean_interval, shape.center,
                                              shape.monotone_right, side)
            return density_integral(MEAN_FAMILY, params, phi)
        return sublinear.solve_g_expectation(model.mean_interval, phi, side).u0
    meta = phi.s_shape
    if (meta is not None and meta.theta == model.var_interval.theta
            and shape.convexity_right is not None):
        try:
            params = select_variance_limit_params(
                model.var_interval, shape.center, shape.convexity_right, side,
                meta.envelope)
            return density_integral(VARIANCE_FAMILY, params, phi)
        except UnsupportedCombination:
            pass
    return sublinear.solve_g_heat(model.var_interval, phi, side).u0


def _solve_all(solves, phi: TestFunction, side: str) -> list:
    """Roots of the (model, grid) solves, in order.

    The solves are split into two halves of near-equal cell-steps (n x grid
    points; the largest first, each to the lighter half).  When
    split._forks allows, split._run solves the lighter half in a child and
    the other half here.  After any failure in either process every solve
    runs again here, in order, so every exception is the serial one.
    """
    def roots(ks):
        return {k: _solve(solves[k][0], phi, side, solves[k][1])[0] for k in ks}

    work = [model.n * len(grid[0]) for model, grid in solves]
    halves, loads = ([], []), [0, 0]
    for k in sorted(range(len(solves)), key=lambda k: -work[k]):
        lighter = int(loads[1] < loads[0])
        halves[lighter].append(k)
        loads[lighter] += work[k]
    light = int(loads[1] < loads[0])
    mine, theirs = halves[1 - light], halves[light]
    found = {}
    for part in split._run(loads[light], FORK_MIN_WORK, lambda: roots(mine),
                           lambda: roots(theirs),
                           lambda: [roots(range(len(solves)))]):
        found.update(part)
    return [found[k] for k in range(len(solves))]


def convergence_experiment(model: RectangularModel, phi: TestFunction,
                           n_schedule, side: str):
    """Finite-n DP values against the nonlinear limit.

    Returns one (n, dp_value, limit_value, gap) row per schedule entry;
    the limit is computed once.  Each n is solved on the
    DEFAULT_GRID_POINTS lattice, and re-solved on the COARSE_GRID_POINTS
    one for the refinement check of sup_expectation_dp only where either
    lattice interpolates.  Those solves may run on two CPUs: the lighter
    half in one forked child process (see _solve_all), with the same roots
    and the same exceptions as one after another.
    """
    check_dp_inputs(phi)
    limit = _explicit_limit(model, phi, side)
    plans = []
    for n in n_schedule:
        work = replace(model, n=int(n))
        plans.append((work, _refinement_grids(work, DEFAULT_GRID_POINTS,
                                              COARSE_GRID_POINTS)))
    roots = iter(_solve_all([(work, grid) for work, grids in plans
                             for grid in grids], phi, side))
    rows = []
    for work, grids in plans:
        value = next(roots)
        if len(grids) == 2:
            _check_refinement(work.n, grids, value, next(roots))
        rows.append((work.n, value, limit, abs(value - limit)))
    return rows


def policy_simulate(model: RectangularModel, policy: AdversaryPolicy,
                    phi: TestFunction, reps: int, spec: SeedSpec):
    """Monte Carlo value of the recorded adversary policy.

    Returns (estimate, standard error).  A sup-side policy is a feasible
    strategy, so its simulated value cannot exceed the DP value beyond
    noise.  The replay may use 2 CPUs with unchanged bits: when
    split._forks allows for half the paths' steps (reps // 2 x n; the CLI
    defaults, n = 100 and reps = 1e4, stay serial), split._run walks the
    second half of the paths in a child, and each half skips the other's
    uniforms (see _replay_paths).  phi, the mean and the standard error are
    taken here over every path, as in the serial replay.
    """
    if reps < 1:
        raise InvalidParams("reps must be >= 1")
    if policy.kind != model.kind or policy.n != model.n:
        raise PolicyMismatch(
            f"policy built for kind={policy.kind!r} n={policy.n} does not "
            f"match model kind={model.kind!r} n={model.n}")
    if policy.controls.shape[0] != policy.n:
        raise PolicyMismatch("policy control table does not cover every step")
    # a policy records tuple(model.controls(h)), so a model that gives any
    # other control is not the one the policy was recorded for
    if policy.control_values != tuple(model.controls(policy.h)):
        raise PolicyMismatch("policy control set differs from the model's")

    def walk(lo, hi):
        return lambda: _replay_paths(model, policy, reps, spec, lo, hi)

    half = reps // 2
    x = np.concatenate(split._run(half * model.n, FORK_MIN_WORK, walk(0, half),
                                  walk(half, reps), lambda: [walk(0, reps)()]))
    vals = phi(x)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return est, se


def _replay_paths(model: RectangularModel, policy: AdversaryPolicy,
                  reps: int, spec: SeedSpec, lo: int, hi: int) -> np.ndarray:
    """Final statistic of paths lo..hi-1 of the reps-path replay.

    Path i draws uniform i of each step's reps, so every step skips the
    lo uniforms before its own and the reps - hi after them (skip_uniforms
    costs O(1)): any split of [0, reps) draws the serial bits.
    """
    gen = generator(spec)
    size = hi - lo
    innovations = Categorical(model.innovation.probs, size)
    atoms = np.asarray(model.innovation.values, dtype=float)
    cvals = np.asarray(policy.control_values, dtype=float)
    points = policy.controls.shape[1]
    mean_model = model.kind == MEAN_KIND
    if mean_model:
        # x + chosen/n + k*eps adds two looked-up terms: chosen/n per
        # control and k*eps per atom, each rounded as in the sum
        cvals = cvals / model.n
        atoms = model.mean_step_scale() * atoms
    else:
        # x + (chosen*eps)/rtn adds one looked-up term: per step, the table
        # of (c*a)/rtn over (atom, point), rounded as in the sum
        moves = np.empty((len(atoms), points))
        column = atoms[:, None]
        rtn = math.sqrt(model.n)
        spot = np.empty(size, dtype=np.intp)
    # the path buffers; the raw words of each draw come in a fresh array
    x = np.zeros(size)
    move = np.empty(size)
    cell = np.empty(size, dtype=np.intp)
    row = np.empty(points)
    for step in range(model.n):
        # cell = rint((x - x0)/h) cast to int, clamped to the grid
        np.subtract(x, policy.x0, out=move)
        np.divide(move, policy.h, out=move)
        np.rint(move, out=move)
        np.copyto(cell, move, casting="unsafe")
        np.take(cvals, policy.controls[step], out=row)
        if mean_model:  # (x + chosen/n) + k*eps
            np.take(row, cell, out=move, mode="clip")
            np.add(x, move, out=x)
        else:
            np.clip(cell, 0, points - 1, out=cell)
            np.multiply(row, column, out=moves)
            np.divide(moves, rtn, out=moves)
        skip_uniforms(gen, lo)
        index = innovations.draw(gen)
        skip_uniforms(gen, reps - hi)
        # every index is in range: mode="clip" only skips take's bounds check
        if mean_model:
            np.take(atoms, index, out=move, mode="clip")
        else:  # x + table[atom, cell]
            np.multiply(index, points, out=spot)
            np.add(spot, cell, out=spot)
            np.take(moves, spot, out=move, mode="clip")
        np.add(x, move, out=x)
    return x
