"""Residual envelopes and closed-form error-bound kernels.

For linear ODEs with hard initial conditions, the gap between the true
solution and the trained surrogate obeys

    |u(x) - u~(x)| <= integral_{x0}^{x} k(x - xi) |r(xi)| d xi,

with a kernel k determined by the operator: exp(-lam s) for first order,
(exp(-lam1 s) - exp(-lam2 s)) / (lam2 - lam1) for distinct positive decay
rates, s exp(-lam s) in the equal-rate limit, and plain s when both rates
vanish (e.g. the harmonic oscillator).  Replacing |r| by a piecewise
constant majorant (the "envelope") makes every integral elementary, so the
bound evaluates in closed form per subinterval.

The resulting bound, read as a standard deviation, is the pseudo-aleatoric
uncertainty attached to a deterministically trained network.  For Burgers,
where no such kernel exists, the accumulated absolute residual over time
serves as a heuristic stand-in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, check_count, check_finite
from .network import ROW_BLOCK
from .problems import BurgersProblem, ODEProblem, residual_values

EQUAL_RATE_TOL = 1e-8

@dataclass
class ResidualEnvelope:
    """Piecewise-constant majorant of |residual| over a knot partition.

    ``epsilons[k]`` bounds |r| on ``[knots[k], knots[k+1]]``.
    """

    knots: np.ndarray
    epsilons: np.ndarray

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        self.epsilons = np.asarray(self.epsilons, dtype=float)
        if self.knots.ndim != 1 or len(self.knots) < 2:
            raise ConfigurationError("envelope needs at least two knots")
        if np.any(np.diff(self.knots) <= 0):
            raise ConfigurationError("envelope knots must be strictly increasing")
        if len(self.epsilons) != len(self.knots) - 1:
            raise ConfigurationError("need one epsilon per subinterval")
        # +inf is a legal bound (singular source); NaN and negatives are not
        if not np.all(self.epsilons >= 0):
            raise ConfigurationError("envelope bounds must be nonnegative and not NaN")

    @property
    def start(self) -> float:
        return float(self.knots[0])

    @property
    def end(self) -> float:
        return float(self.knots[-1])


def uniform_knots(problem: ODEProblem, n_intervals: int = 40) -> np.ndarray:
    """Equispaced partition of [x0, test_end]."""
    n = check_count("n_intervals", n_intervals, 1)
    return np.linspace(problem.x0, problem.test_domain[1], n + 1)


def envelope_from_function(residual_fn, knots, oversample=10, safety_factor=1.1) -> ResidualEnvelope:
    """Envelope of an arbitrary scalar residual function (testing hook)."""
    knots = np.asarray(knots, dtype=float)
    oversample = check_count("oversample", oversample, 1)
    # below 1 the envelope undercuts the sampled maximum of |r| and is no
    # longer a majorant
    safety_factor = check_finite("safety_factor", safety_factor, 1.0, inclusive=True)
    eps = np.empty(len(knots) - 1)
    with np.errstate(divide="ignore"):  # singular sources hit inf at a pole
        for k in range(len(knots) - 1):
            xi = np.linspace(knots[k], knots[k + 1], oversample)
            eps[k] = safety_factor * np.max(np.abs(residual_fn(xi)))
    if np.any(np.isnan(eps)):
        raise ConfigurationError("residual samples contain NaN; model state is broken")
    # eps = inf is kept: a singular source makes |r| genuinely unbounded on
    # that subinterval, and the bound honestly diverges there
    return ResidualEnvelope(knots, eps)


def estimate_envelope(trained, oversample=10, safety_factor=1.1) -> ResidualEnvelope:
    """Sampled residual envelope of a trained surrogate on the
    :func:`uniform_knots` of its test domain."""
    problem = trained.problem
    if isinstance(problem, BurgersProblem):
        raise ConfigurationError("envelopes are defined for ODE problems only")
    check_count("oversample of a trained model", oversample, 2)
    return envelope_from_function(
        lambda xs: residual_values(problem, trained.params, xs),
        uniform_knots(problem),
        oversample,
        safety_factor,
    )


# ---------------------------------------------------------------------------
# closed-form bound
# ---------------------------------------------------------------------------


def _segment_integral(problem: ODEProblem):
    """The operator kernel k of ``problem`` as a segment integral
    ``(xs, lo, hi) -> integral_lo^hi k(xs - xi) d xi``, chosen once from the
    order and the decay rates."""
    if problem.order == 1:
        lam = problem.lam
        return lambda xs, lo, hi: (np.exp(-lam * (xs - hi)) - np.exp(-lam * (xs - lo))) / lam
    lam1, lam2 = problem.real_parts()
    if abs(lam1) <= EQUAL_RATE_TOL and abs(lam2) <= EQUAL_RATE_TOL:
        # k(s) = s, e.g. the harmonic oscillator
        return lambda xs, lo, hi: xs * (hi - lo) - 0.5 * (hi * hi - lo * lo)
    if abs(lam2 - lam1) <= EQUAL_RATE_TOL:
        if lam1 <= 0:
            raise ConfigurationError("error bounds need nonnegative decay rates")
        # k(s) = s exp(-lam s): the lam2 -> lam1 limit of the distinct-rate
        # kernel; it also covers complex-conjugate roots with positive real
        # part, where |sin(w s)/w| <= s makes it a valid majorant
        lam = 0.5 * (lam1 + lam2)

        def anti(s):
            return np.exp(-lam * s) * (s / lam + 1.0 / (lam * lam))

        return lambda xs, lo, hi: anti(xs - hi) - anti(xs - lo)
    if lam1 > 0 and lam2 > 0:
        # k(s) = (exp(-lam1 s) - exp(-lam2 s)) / (lam2 - lam1)
        def distinct(xs, lo, hi):
            seg1 = (np.exp(-lam1 * (xs - hi)) - np.exp(-lam1 * (xs - lo))) / lam1
            seg2 = (np.exp(-lam2 * (xs - hi)) - np.exp(-lam2 * (xs - lo))) / lam2
            return (seg1 - seg2) / (lam2 - lam1)

        return distinct
    raise ConfigurationError(
        f"no bound kernel for decay rates ({lam1}, {lam2}); "
        "supported: both positive or both zero"
    )


def pseudo_sigma(problem: ODEProblem, envelope: ResidualEnvelope, x):
    """sigma_P(x) for a linear ODE: the closed-form error bound at x.

    Each subinterval is clipped to ``[knots[k], min(knots[k+1], x)]``, so
    subintervals beyond x collapse to zero length and one vectorized formula
    covers full, partial and untouched segments.
    """
    segment = _segment_integral(problem)
    scalar = np.ndim(x) == 0
    x = np.asarray(np.atleast_1d(x), dtype=float)
    if np.any(x < envelope.start - 1e-12) or np.any(x > envelope.end + 1e-12):
        raise DomainError(
            f"evaluation points outside envelope coverage [{envelope.start}, {envelope.end}]"
        )
    xs = x[:, None]
    seg = segment(
        xs,
        np.minimum(envelope.knots[None, :-1], xs),
        np.minimum(envelope.knots[None, 1:], xs),
    )
    # an infinite envelope bound (singular source) must not poison segments
    # the integral never touches, so zero-length segments contribute exactly 0
    with np.errstate(invalid="ignore"):
        contrib = seg * envelope.epsilons[None, :]
    out = np.where(seg > 0.0, contrib, 0.0).sum(axis=1)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# pseudo-aleatoric profiles
# ---------------------------------------------------------------------------


@dataclass
class PseudoAleatoricProfile:
    """Pseudo-aleatoric standard deviation on an evaluation grid."""

    grid: np.ndarray
    sigma_p: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.sigma_p = np.asarray(self.sigma_p, dtype=float)
        # +inf is a legal bound (singular source); NaN and negatives are not
        if not np.all(self.sigma_p >= 0):
            raise ConfigurationError("sigma_p must be nonnegative and not NaN")


def burgers_sigma_grid(trained, points, n_time_samples: int = 64) -> np.ndarray:
    """Accumulated-|residual| heuristic for the (x, t) rows of ``points``:
    t * mean_i |r(x, t_i)| over ``n_time_samples`` equispaced t_i in [0, t].

    On an equispaced grid many (x, t_i) rows repeat (t_j * frac_i equals
    t_k * frac_l whenever j * i = k * l), so each distinct row is evaluated
    once and gathered back.  The points are grouped by x in increasing
    order, and each group's distinct t_i in increasing order, so the distinct
    rows come in (x, t) order.  They go through the network in blocks of
    ``ROW_BLOCK`` consecutive rows, each evaluated as soon as it fills; a
    group is gathered once its last row is evaluated, and its residuals are
    then dropped.  Memory is O(ROW_BLOCK + one x group * n + N) floats,
    whatever the grid.
    """
    n_time_samples = check_count("n_time_samples", n_time_samples, 1)
    pts = np.asarray(points, dtype=float)
    frac = np.linspace(0.0, 1.0, n_time_samples)
    xs, group = np.unique(pts[:, 0], return_inverse=True)
    members = np.split(np.argsort(group, kind="stable"), np.cumsum(np.bincount(group))[:-1])
    sigma = np.empty(len(pts))
    waiting = deque()  # (points, their t_i, distinct t_i) of groups not yet gathered
    rows = np.empty((0, 2))  # distinct rows not yet evaluated
    done = np.empty(0)  # |r| of the evaluated rows of the waiting groups
    for g, (x, idx) in enumerate(zip(xs, members)):
        taus = pts[idx, 1][:, None] * frac
        distinct = np.unique(taus)
        waiting.append((idx, taus, distinct))
        rows = np.concatenate([rows, np.stack([np.full_like(distinct, x), distinct], axis=1)])
        last = g == len(xs) - 1
        while len(rows) >= ROW_BLOCK or (last and len(rows)):
            block, rows = rows[:ROW_BLOCK], rows[ROW_BLOCK:]
            done = np.concatenate([done, np.abs(residual_values(trained.problem, trained.params, block))])
            while waiting and len(waiting[0][2]) <= len(done):
                idx, taus, distinct = waiting.popleft()
                r, done = done[:len(distinct)], done[len(distinct):]
                sigma[idx] = pts[idx, 1] * np.mean(r[np.searchsorted(distinct, taus)], axis=1)
    return sigma


def pseudo_profile(trained, envelope, grid, n_time_samples: int = 64) -> PseudoAleatoricProfile:
    """sigma_P of ``trained`` over an evaluation grid: the closed-form bound
    of ``envelope`` for an ODE, the accumulated-|residual| heuristic of
    :func:`burgers_sigma_grid` over (x, t) rows for Burgers (no envelope)."""
    problem = trained.problem
    grid = np.asarray(grid, dtype=float)
    if isinstance(problem, BurgersProblem):
        if grid.ndim != 2 or grid.shape[1] != 2:
            raise ConfigurationError("Burgers profiles need (x, t) grid rows")
        return PseudoAleatoricProfile(grid, burgers_sigma_grid(trained, grid, n_time_samples))
    if envelope is None:
        raise ConfigurationError("ODE profiles need a residual envelope")
    return PseudoAleatoricProfile(grid, pseudo_sigma(problem, envelope, grid))
