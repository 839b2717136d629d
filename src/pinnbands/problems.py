"""Benchmark differential equations, hard-IC surrogates, and residuals.

Twelve linear ODE benchmarks are registered under stable string ids:

    ode1.*             u' + 3u = f(t),          u(0) = 2
    ode2.harmonic.*    u'' + u = f(t)
    ode2.damped.*      u'' + 3u' + 4u = f(t)

plus ``burgers`` (u_t + u u_x = nu u_xx on [-1,1] x [0,2], nu = 0.01/pi).

Initial conditions are enforced exactly by algebraic transforms of the raw
network output, so every parameter setting of the network satisfies them:

    order 1:  u~(x) = u0 + (1 - e^(-(x-x0))) net(x)
    order 2:  u~(x) = u0 + u0' m + m^2 net(x),   m = 1 - e^(-(x-x0))
    Burgers:  u~(x,t) = -sin(pi x) e^(-t) + (1-x^2)(1-e^(-t)) net(x,t)

The residual of u~ reads the raw network jet through point factors that
:func:`residual_pieces` alone forms: the Burgers transform and its partials,
or the ODE coefficients with the transform folded into the operator.
Callers compute them once per set of points and pass them to
:func:`residual_from_jets` and :func:`residual_jet_partials`.

Analytic solutions are provided for every registered equation and are used
only for evaluation, never during training.  Two equations have no
elementary closed form as printed (``ode1.logsing`` and ``ode2.damped.log``);
their reference solutions are exact variation-of-parameters integrals
evaluated by adaptive quadrature.  ``scipy.integrate`` (and the scipy.optimize
and scipy.sparse modules it loads) is imported inside those two quadratures on
first use, so ``import pinnbands`` and every training or inference path run
without it.  ``ode1.logsing`` has a non-integrable singularity at t = 1 inside
the training window and is therefore excluded from solution-accuracy
thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError, check_finite
from .network import forward_jets_batch, forward_values


def sin_pi(x):
    """sin(pi*x) with argument reduction: exactly zero at integer x."""
    x = np.asarray(x, dtype=float)
    k = np.round(x)
    return np.where(k.astype(int) % 2 == 0, 1.0, -1.0) * np.sin(np.pi * (x - k))


def cos_pi(x):
    """cos(pi*x) with the same reduction as :func:`sin_pi`."""
    x = np.asarray(x, dtype=float)
    k = np.round(x)
    return np.where(k.astype(int) % 2 == 0, 1.0, -1.0) * np.cos(np.pi * (x - k))


# ---------------------------------------------------------------------------
# problem types
# ---------------------------------------------------------------------------


@dataclass
class ODEProblem:
    """Linear constant-coefficient ODE with hard initial conditions.

    Order 1: u' + lam*u = f,   u(x0) = u0,  lam > 0, u0 != 0.
    Order 2: u'' + c1*u' + c0*u = f,  u(x0) = u0, u'(x0) = u0_prime.
    """

    order: int
    source: Callable
    u0: float
    x0: float = 0.0
    lam: Optional[float] = None
    c1: Optional[float] = None
    c0: Optional[float] = None
    u0_prime: Optional[float] = None
    train_domain: tuple = (0.0, 2.0)
    test_domain: tuple = (0.0, 4.0)
    # the training set-up of every ODE: hidden activation and Adam step size
    activation: ClassVar[str] = "tanh"
    learning_rate: ClassVar[float] = 0.01

    def __post_init__(self):
        if self.order == 1:
            check_finite("lam of an order-1 problem", self.lam, 0.0)
            if self.u0 == 0:
                raise ConfigurationError("order-1 error bounds require u(x0) != 0")
        elif self.order == 2:
            if self.c1 is None or self.c0 is None or self.u0_prime is None:
                raise ConfigurationError("order-2 problems need c1, c0 and u0_prime")
        else:
            raise ConfigurationError(f"unsupported ODE order {self.order}")
        a, b = self.train_domain
        a2, c = self.test_domain
        if not (a2 == a and c >= b and b > a):
            raise ConfigurationError("need train_domain [a,b] inside test_domain [a,c]")
        if self.x0 != a:
            raise ConfigurationError("x0 must be the left end of the training domain")

    @property
    def input_dim(self) -> int:
        return 1

    @property
    def derivs(self) -> tuple:
        """Derivative slots the residual reads: u', and u'' at order 2."""
        return ((0,),) if self.order == 1 else ((0,), (0, 0))

    @property
    def prior_sigma(self) -> float:
        """Sd of the VI weight prior: N(0, 0.1) at order 1, else N(0, 1) (variances)."""
        return math.sqrt(0.1) if self.order == 1 else 1.0

    def real_parts(self):
        """Real parts (lam1, lam2) of the characteristic-root negatives.

        For s^2 + c1 s + c0 with real roots, the two decay rates differ;
        a complex pair shares the rate c1/2.
        """
        if self.order != 2:
            raise ConfigurationError("real_parts is defined for order-2 problems")
        disc = self.c1 * self.c1 - 4.0 * self.c0
        if disc >= 0.0:
            sq = math.sqrt(disc)
            return (self.c1 - sq) / 2.0, (self.c1 + sq) / 2.0
        return self.c1 / 2.0, self.c1 / 2.0


@dataclass
class BurgersProblem:
    """Viscous Burgers equation with -sin(pi x) initial data and zero walls."""

    nu: float = 0.01 / math.pi
    space_domain: tuple = (-1.0, 1.0)
    train_time: tuple = (0.0, 1.0)
    test_time: tuple = (0.0, 2.0)
    activation: ClassVar[str] = "sigmoid"
    learning_rate: ClassVar[float] = 1e-3
    prior_sigma: ClassVar[float] = 1.0

    def __post_init__(self):
        check_finite("viscosity nu", self.nu, 0.0)

    @property
    def input_dim(self) -> int:
        return 2

    @property
    def derivs(self) -> tuple:
        """Derivative slots the residual reads: u_x, u_t and u_xx."""
        return ((0,), (1,), (0, 0))


# ---------------------------------------------------------------------------
# hard-IC transforms and batched evaluation
# ---------------------------------------------------------------------------


def burgers_initial_condition(x):
    return -sin_pi(x)


def _ode_masks(problem, x):
    s = np.asarray(x, dtype=float) - problem.x0
    mp = np.exp(-s)
    m = 1.0 - mp
    mpp = -mp
    return m, mp, mpp


def transform_offset_scale(problem, points):
    """(offset, scale) with u~(x) = offset(x) + scale(x) * net(x) pointwise."""
    if isinstance(problem, BurgersProblem):
        A, _, _, _, B, _, _, _ = _burgers_pieces(points)
        return A, B
    m, _, _ = _ode_masks(problem, points)
    if problem.order == 1:
        return np.full_like(m, problem.u0), m
    return problem.u0 + problem.u0_prime * m, m * m


def surrogate_values(problem, params, points) -> np.ndarray:
    """Transformed surrogate values on a batch of points."""
    offset, scale = transform_offset_scale(problem, points)
    return offset + scale * forward_values(params, points)


def _burgers_pieces(points):
    pts = np.asarray(points, dtype=float)
    x, t = pts[:, 0], pts[:, 1]
    emt = np.exp(-t)
    s = sin_pi(x)
    c = cos_pi(x)
    pi = math.pi
    A = -s * emt
    A_x = -pi * c * emt
    A_t = s * emt
    A_xx = pi * pi * s * emt
    w = 1.0 - emt
    B = (1.0 - x * x) * w
    B_x = -2.0 * x * w
    B_t = (1.0 - x * x) * emt
    B_xx = -2.0 * w
    return A, A_x, A_t, A_xx, B, B_x, B_t, B_xx


def residual_pieces(problem, points):
    """The point-dependent factors of the residual at ``points``, formed here
    and nowhere else.

    Burgers: the transform u~ = A + B net as (A, A_x, A_t, A_xx, B, B_x, B_t,
    B_xx).  ODE: (a0, a1, a2, beta, dslots) with r = a0*net + a1*net' +
    a2*net'' + beta, the hard-IC transform folded into the operator, and
    dslots the slot rows of :func:`residual_jet_partials`.  Callers compute
    them once per set of points and pass them to :func:`residual_from_jets`
    and :func:`residual_jet_partials`.
    """
    if isinstance(problem, BurgersProblem):
        return _burgers_pieces(points)
    x = np.asarray(points, dtype=float)
    m, mp, mpp = _ode_masks(problem, x)
    f = problem.source(x)
    if problem.order == 1:
        a0 = mp + problem.lam * m
        a1 = m
        a2 = np.zeros_like(m)
        beta = problem.lam * problem.u0 - f
    else:
        c1, c0 = problem.c1, problem.c0
        a0 = 2.0 * (mp * mp + m * mpp) + 2.0 * c1 * m * mp + c0 * m * m
        a1 = 4.0 * m * mp + c1 * m * m
        a2 = m * m
        beta = (
            problem.u0_prime * mpp
            + c1 * problem.u0_prime * mp
            + c0 * (problem.u0 + problem.u0_prime * m)
            - f
        )
    # the slot partials of an ODE residual are its slot coefficients
    dslots = a1[None, :] if problem.order == 1 else np.stack([a1, a2])
    return a0, a1, a2, beta, dslots


def residual_from_jets(problem, jets, pieces):
    """Residual values from a raw-network JetBatch, with ``pieces`` the
    :func:`residual_pieces` at the jets' points."""
    if isinstance(problem, BurgersProblem):
        A, A_x, A_t, A_xx, B, B_x, B_t, B_xx = pieces
        v = jets.value
        gx, gt, hxx = jets.slot((0,)), jets.slot((1,)), jets.slot((0, 0))
        u = A + B * v
        u_x = A_x + B_x * v + B * gx
        u_t = A_t + B_t * v + B * gt
        u_xx = A_xx + B_xx * v + 2.0 * B_x * gx + B * hxx
        return u_t + u * u_x - problem.nu * u_xx
    a0, a1, a2, beta, _ = pieces
    r = a0 * jets.value + a1 * jets.slot((0,)) + beta
    if problem.order == 2:
        r = r + a2 * jets.slot((0, 0))
    return r


def residual_jet_partials(problem, jets, pieces):
    """Partials of the residual w.r.t. the raw network value and slots.

    Returns ``(dv, dslots)``: dv has shape (M,) and dslots (S, M), one row
    per slot of ``problem.derivs`` in that order, which is the layout
    :func:`pinnbands.network.backward` expects for the slot cotangents.
    ``pieces`` is as in :func:`residual_from_jets`.
    """
    if jets.derivs != problem.derivs:
        raise ShapeError(f"jets carry slots {jets.derivs}, the problem reads {problem.derivs}")
    if isinstance(problem, BurgersProblem):
        A, A_x, A_t, A_xx, B, B_x, B_t, B_xx = pieces
        v = jets.value
        gx = jets.slot((0,))
        u = A + B * v
        u_x = A_x + B_x * v + B * gx
        dv = B_t + B * u_x + u * B_x - problem.nu * B_xx
        dslots = np.stack([u * B - 2.0 * problem.nu * B_x, B, -problem.nu * B])
        return dv, dslots
    a0, _, _, _, dslots = pieces
    return a0, dslots


def residual_values(problem, params, points) -> np.ndarray:
    """Residuals of the transformed surrogate on a batch of points."""
    pts = np.asarray(points, dtype=float)
    jets, _ = forward_jets_batch(params, pts, problem.derivs)
    return residual_from_jets(problem, jets, residual_pieces(problem, pts))


# ---------------------------------------------------------------------------
# analytic solutions
# ---------------------------------------------------------------------------

_DAMPED_OMEGA = math.sqrt(7.0) / 2.0


def _damped_homogeneous(t, A, B):
    t = np.asarray(t, dtype=float)
    return np.exp(-1.5 * t) * (
        A * np.cos(_DAMPED_OMEGA * t) + B * np.sin(_DAMPED_OMEGA * t)
    )


def _quad_duhamel_first_order(source, lam, u0, t):
    """Exact integrating-factor solution of u' + lam u = f, u(0)=u0."""
    from scipy.integrate import quad

    val, _ = quad(
        lambda s: math.exp(lam * s) * float(source(np.asarray(s))),
        0.0,
        float(t),
        epsabs=1e-13,
        epsrel=1e-13,
        limit=400,
    )
    return math.exp(-lam * float(t)) * (u0 + val)


def _quad_duhamel_damped(source, t, hom_A, hom_B):
    """Impulse-response solution of u'' + 3u' + 4u = f for one time value."""
    from scipy.integrate import quad

    t = float(t)

    def kernel(s):
        tau = t - s
        return (math.exp(-1.5 * tau) * math.sin(_DAMPED_OMEGA * tau) / _DAMPED_OMEGA) * float(
            source(np.asarray(s))
        )

    part, _ = quad(kernel, 0.0, t, epsabs=1e-13, epsrel=1e-13, limit=400)
    return float(_damped_homogeneous(t, hom_A, hom_B)) + part


# source terms (named built-ins; no expression parser)

def _f1_poly(t):
    return 3.0 * t**2 + 5.0 * t + 4.0


def _f1_cos(t):
    return 6.0 * np.cos(3.0 * t)


def _f1_exp(t):
    return 4.0 * np.exp(t)


def _f1_logsing(t):
    return -9.0 * np.log(t + 1.0) - (1.0 - t) ** (-2.0)


def _f2h_exp(t):
    return 2.0 * np.exp(t)


def _f2h_poly(t):
    return t**2 + t + 3.0


def _f2h_log(t):
    return np.log(t + 1.0) - (t + 1.0) ** (-2.0)


def _f2h_chirp(t):
    return 2.0 * np.cos(t**2) + (1.0 - 4.0 * t**2) * np.sin(t**2)


def _f2d_exp(t):
    return 8.0 * np.exp(t)


def _f2d_poly(t):
    return 3.0 * t**2 + 11.0 * t + 9.0


def _f2d_log(t):
    return 3.0 * np.log(t + 1.0) + 4.0 / (t + 1.0) - (t + 1.0) ** (-2.0)


def _f2d_trig(t):
    return 6.0 * np.cos(t) - 2.0 * np.sin(t)


# closed forms, cross-checked against an RK45 oracle in the test suite

def _u1_poly(t):
    return np.exp(-3.0 * t) + t**2 + t + 1.0


def _u1_cos(t):
    return np.exp(-3.0 * t) + np.cos(3.0 * t) + np.sin(3.0 * t)


def _u1_exp(t):
    return np.exp(-3.0 * t) + np.exp(t)


def _u1_logsing(t):
    t = np.asarray(t, dtype=float)
    if np.any(t >= 1.0):
        raise DomainError(
            "ode1.logsing: source (1-t)^-2 is non-integrable at t=1; "
            "the solution exists only for t < 1"
        )
    flat = np.atleast_1d(t)
    out = np.array([_quad_duhamel_first_order(_f1_logsing, 3.0, 2.0, tv) for tv in flat])
    return out[0] if t.ndim == 0 else out


def _u2h_exp(t):
    return np.exp(t) + np.cos(t) + np.sin(t)


def _u2h_poly(t):
    return t**2 + t + 1.0 + np.cos(t) + np.sin(t)


def _u2h_log(t):
    return np.log(t + 1.0) + np.cos(t) + np.sin(t)


def _u2h_chirp(t):
    return np.sin(t**2) + np.cos(t) + np.sin(t)


def _u2d_exp(t):
    return np.exp(t) + _damped_homogeneous(t, 2.0, -1.0 / _DAMPED_OMEGA)


def _u2d_poly(t):
    part = 0.75 * t**2 + 1.625 * t + 0.65625
    return part + _damped_homogeneous(t, 2.34375, -1.109375 / _DAMPED_OMEGA)


def _u2d_log(t):
    t = np.asarray(t, dtype=float)
    flat = np.atleast_1d(t)
    out = np.array([_quad_duhamel_damped(_f2d_log, tv, 2.0, 0.0) for tv in flat])
    return out[0] if t.ndim == 0 else out


def _u2d_trig(t):
    part = (4.0 / 3.0) * np.cos(t) + (2.0 / 3.0) * np.sin(t)
    return part + _damped_homogeneous(t, 5.0 / 3.0, -7.0 / (6.0 * _DAMPED_OMEGA))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass
class ProblemEntry:
    problem_id: str
    equation: str
    problem: object
    analytic: Optional[Callable] = None
    singular: bool = False


def _ode1(source):
    return ODEProblem(order=1, lam=3.0, source=source, u0=2.0)


def _ode2(c1, c0, source, u0, u0p):
    return ODEProblem(order=2, c1=c1, c0=c0, source=source, u0=u0, u0_prime=u0p)


REGISTRY = {}


def _register(entry: ProblemEntry):
    REGISTRY[entry.problem_id] = entry


_register(ProblemEntry("ode1.poly", "u' + 3u = 3t^2 + 5t + 4, u(0)=2",
                       _ode1(_f1_poly), _u1_poly))
_register(ProblemEntry("ode1.cos", "u' + 3u = 6cos(3t), u(0)=2",
                       _ode1(_f1_cos), _u1_cos))
_register(ProblemEntry("ode1.exp", "u' + 3u = 4e^t, u(0)=2",
                       _ode1(_f1_exp), _u1_exp))
_register(ProblemEntry("ode1.logsing", "u' + 3u = -9ln(t+1) - (1-t)^-2, u(0)=2",
                       _ode1(_f1_logsing), _u1_logsing, singular=True))
_register(ProblemEntry("ode2.harmonic.exp", "u'' + u = 2e^t, u(0)=2, u'(0)=2",
                       _ode2(0.0, 1.0, _f2h_exp, 2.0, 2.0), _u2h_exp))
_register(ProblemEntry("ode2.harmonic.poly", "u'' + u = t^2 + t + 3, u(0)=2, u'(0)=2",
                       _ode2(0.0, 1.0, _f2h_poly, 2.0, 2.0), _u2h_poly))
_register(ProblemEntry("ode2.harmonic.log", "u'' + u = ln(t+1) - (t+1)^-2, u(0)=1, u'(0)=2",
                       _ode2(0.0, 1.0, _f2h_log, 1.0, 2.0), _u2h_log))
_register(ProblemEntry("ode2.harmonic.chirp",
                       "u'' + u = 2cos(t^2) + (1-4t^2)sin(t^2), u(0)=1, u'(0)=1",
                       _ode2(0.0, 1.0, _f2h_chirp, 1.0, 1.0), _u2h_chirp))
_register(ProblemEntry("ode2.damped.exp", "u'' + 3u' + 4u = 8e^t, u(0)=3, u'(0)=-3",
                       _ode2(3.0, 4.0, _f2d_exp, 3.0, -3.0), _u2d_exp))
_register(ProblemEntry("ode2.damped.poly", "u'' + 3u' + 4u = 3t^2 + 11t + 9, u(0)=3, u'(0)=-3",
                       _ode2(3.0, 4.0, _f2d_poly, 3.0, -3.0), _u2d_poly))
_register(ProblemEntry("ode2.damped.log",
                       "u'' + 3u' + 4u = 3ln(t+1) + 4(t+1)^-1 - (t+1)^-2, u(0)=2, u'(0)=-3",
                       _ode2(3.0, 4.0, _f2d_log, 2.0, -3.0), _u2d_log))
_register(ProblemEntry("ode2.damped.trig", "u'' + 3u' + 4u = 6cos(t) - 2sin(t), u(0)=3, u'(0)=-3",
                       _ode2(3.0, 4.0, _f2d_trig, 3.0, -3.0), _u2d_trig))
_register(ProblemEntry("burgers", "u_t + u u_x = (0.01/pi) u_xx, u(x,0)=-sin(pi x), u(+-1,t)=0",
                       BurgersProblem()))

FIRST_ORDER_IDS = ("ode1.poly", "ode1.cos", "ode1.exp", "ode1.logsing")


def get_entry(problem_id: str) -> ProblemEntry:
    if not isinstance(problem_id, str) or problem_id not in REGISTRY:
        known = ", ".join(REGISTRY)
        raise ConfigurationError(f"unknown problem id {problem_id!r} (known: {known})")
    return REGISTRY[problem_id]


def get_problem(problem_id: str):
    return get_entry(problem_id).problem


def analytic_solution(problem_id: str, x):
    """Exact solution value(s) of a registered equation; evaluation only."""
    entry = get_entry(problem_id)
    if entry.analytic is None:
        raise ConfigurationError(f"{problem_id!r} has no reference solution")
    return entry.analytic(x)
