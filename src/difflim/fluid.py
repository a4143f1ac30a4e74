"""Deterministic diffusion model.

The mean-field dynamics are

    ds/dt = -beta*(s/n)*i - p*s
    di/dt =  beta*(s/n)*i - gamma*i + p*s
    dr/dt =  gamma*i

integrated in normalized units together with the cumulative count c and
the exposure integral xi(t) = (beta/n) * int_0^t i.  Runge-Kutta methods
preserve the linear invariants s + i + r = n and c = i + r to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _dop853
from .core import ModelParams, ValidationError, validate_params


@dataclass
class FluidTrajectory:
    params: ModelParams
    s0: float
    i0: float
    r0: float
    ts: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    c: np.ndarray
    xi: np.ndarray
    markers: dict = field(default_factory=dict)
    _dense: Optional[Callable] = None

    @property
    def n(self) -> float:
        return self.params.n

    def at(self, t) -> tuple[float, float, float, float, float]:
        """Dense-output evaluation: (s, i, r, c, xi); counts in absolute
        units, xi dimensionless."""
        xs, xi_, xr, xc, exposure = self._dense(t)
        return xs * self.n, xi_ * self.n, xr * self.n, xc * self.n, exposure


def default_t_max(params: ModelParams) -> float:
    """Horizon heuristic 4 * log(n) / (beta - gamma), long enough to cover
    the rate peak of a supercritical process."""
    rate = params.beta - params.gamma
    if rate <= 0:
        rate = max(params.beta, params.gamma, params.p, 1e-3)
    return 4.0 * math.log(max(params.n, 2.0)) / rate


def integrate(
    params: ModelParams,
    s0: float,
    i0: float,
    r0: float,
    t_max: Optional[float] = None,
    tol: float = 1e-10,
    samples: int = 1001,
) -> FluidTrajectory:
    """Adaptive Dormand-Prince 8(5,3) integration of the mean-field system.

    Preconditions: i0, r0 >= 0 and s0 + i0 + r0 = n (to float tolerance),
    t_max and tol positive and finite.  The returned grid is uniform with ``samples`` points; the
    dense interpolant is kept for marker refinement.
    """
    validate_params(params)
    n = params.n
    if i0 < 0 or r0 < 0:
        raise ValidationError("i0 and r0 must be >= 0")
    if i0 + r0 > n:
        raise ValidationError("i0 + r0 exceeds the population")
    if abs(s0 + i0 + r0 - n) > 1e-9 * n:
        raise ValidationError("s0 + i0 + r0 must equal n")
    if t_max is None:
        t_max = default_t_max(params)
    if not (0 < t_max < math.inf and 0 < tol < math.inf):
        raise ValidationError("t_max and tol must be positive and finite")

    beta, gamma, p = params.beta, params.gamma, params.p

    def rhs(_t, y):
        xs, xi_, _xr, _xc, _exposure = y
        force = beta * xs * xi_ + p * xs
        return np.array((-force, force - gamma * xi_, gamma * xi_, force, beta * xi_))

    y0 = np.array([s0 / n, i0 / n, r0 / n, (i0 + r0) / n, 0.0])
    atol = max(tol * 1e-3 * max(i0 / n, 1e-16), 1e-300)
    dense = _dop853.solve(rhs, y0, t_max, rtol=tol, atol=atol)
    ts = np.linspace(0.0, t_max, samples)
    ys = dense(ts)
    return FluidTrajectory(
        params=params,
        s0=s0,
        i0=i0,
        r0=r0,
        ts=ts,
        s=ys[0] * n,
        i=ys[1] * n,
        r=ys[2] * n,
        c=ys[3] * n,
        xi=ys[4],
        _dense=dense,
    )


def bass_closed_form(params: ModelParams, t):
    """Adopter count i(t) = n * (1 - e^{-(p+beta) t}) / ((beta/p) e^{-(p+beta) t} + 1)
    for the pure-adoption regime started from i(0) = 0."""
    if params.gamma != 0:
        raise ValidationError("closed form requires gamma = 0")
    if params.p <= 0:
        raise ValidationError("closed form is singular at p = 0")
    t = np.asarray(t, dtype=float)
    e = np.exp(-(params.p + params.beta) * t)
    return params.n * (1.0 - e) / ((params.beta / params.p) * e + 1.0)


def sir_xi_form(params: ModelParams, s0: float, i0: float, r0: float, t: float):
    """Closed-form triple s = s0 e^{-xi}, r = r0 + (gamma n / beta) xi,
    i = n - s - r, with xi obtained by quadrature along the integrated
    trajectory."""
    if params.p != 0:
        raise ValidationError("xi form requires p = 0")
    if params.beta <= 0:
        raise ValidationError("xi form requires beta > 0")
    traj = integrate(params, s0, i0, r0, t_max=max(t, 1e-9))
    xi_t = float(traj._dense(t)[4])
    return xi_triple(params, s0, r0, xi_t)


def xi_triple(params: ModelParams, s0: float, r0: float, xi_t: float):
    s = s0 * math.exp(-xi_t)
    r = r0 + (params.gamma * params.n / params.beta) * xi_t
    i = params.n - s - r
    return s, i, r


UNREACHED = None


def _bisect(f, lo: float, hi: float, iters: int = 80) -> float:
    """Refine the first sign change of f on [lo, hi]; f(lo) <= 0 < f(hi) or
    the reverse is assumed by the caller supplying a bracketing interval."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _first_crossing(traj: FluidTrajectory, g: Callable) -> Optional[float]:
    """First time g(t) > 0 on the trajectory grid, refined by bisection on
    the dense solution; None when the event is not reached by t_max."""
    vals = g(traj.ts)
    if vals[0] > 0:
        return float(traj.ts[0])
    idx = np.nonzero(vals > 0)[0]
    if idx.size == 0:
        return UNREACHED
    j = int(idx[0])
    return float(_bisect(lambda t: g(np.array([t]))[0], traj.ts[j - 1], traj.ts[j]))


def peak_times(traj: FluidTrajectory) -> dict:
    """Marker times on a trajectory.

    t_cr:               first t with c(t) >= n^(2/3)
    t_star_inflection:  first t with d2s/dt2 > 0, via the sign condition
                        s < (gamma/beta) n + i (d2s/dt2 = (beta^2 i s / n^2)
                        (i - s + (gamma/beta) n))
    t_star_rate:        first t with s/n < gamma/beta

    Unreached markers are reported as None, never raised.  The inflection
    always precedes the rate peak because s is decreasing and i >= 0.
    """
    n = traj.n
    beta, gamma = traj.params.beta, traj.params.gamma
    dense = traj._dense
    thresh = n ** (2.0 / 3.0)

    def g_cr(ts):
        return dense(ts)[3] * n - thresh

    def g_inflect(ts):
        y = dense(ts)
        return y[1] - y[0] + gamma / beta if beta > 0 else np.full_like(np.atleast_1d(ts), -1.0)

    def g_rate(ts):
        return gamma / beta - dense(ts)[0] if beta > 0 else np.full_like(np.atleast_1d(ts), -1.0)

    markers = {
        "t_cr": _first_crossing(traj, g_cr),
        "t_star_inflection": _first_crossing(traj, g_inflect) if beta > 0 else UNREACHED,
        "t_star_rate": _first_crossing(traj, g_rate) if beta > 0 and gamma > 0 else UNREACHED,
    }
    traj.markers.update(markers)
    return markers


def time_to_susceptible_fraction(traj: FluidTrajectory, rho: float) -> Optional[float]:
    """First time with s(t)/n = rho (s is non-increasing)."""
    dense = traj._dense

    def g(ts):
        return rho - dense(ts)[0]

    return _first_crossing(traj, g)


@dataclass(frozen=True)
class PeakBoundReport:
    nu1: float
    nu2: float
    rho1: float
    t_cr_lower: float
    t_star_upper: float
    c_const: float


def peak_bounds(
    params: ModelParams, c0: float, i0: float, n: Optional[float] = None
) -> PeakBoundReport:
    """Closed-form sandwich for the marker times of a supercritical run.

    Lower bound on the time to reach n^(2/3) cumulative infections:

        t_cr >= (1/(beta-gamma)) * ( (2/3) log(nu1 n / c0^(3/2))
                 + log((nu1^(2/3)/c0) (1 - c0 / n^(2/3))) ),
        nu1 = ((beta-gamma)/beta)^(3/2).

    Upper bound on the rate-peak time (first s/n < gamma/beta):

        t_star <= (1/(beta rho1 - gamma)) log(nu2 n / i0) + C/(1 - rho1),
        nu2 = 2 (beta-gamma)/beta,  rho1 = 1 - 1/log log n,  rho2 = gamma/beta,
        C = (rho1 - rho2) / ((rho2/rho1)(beta rho1 - gamma)
             - (beta rho2 / 2) c0 / (n (1 - rho1))).

    Hypotheses: beta > gamma > 0, n >= 16 (so log log n > 1), 0 < c0 <
    n^(2/3), i0 > 0, rho1 > rho2, and a positive denominator in C;
    violations raise with the failed hypothesis named.
    """
    beta, gamma = params.beta, params.gamma
    if n is None:
        n = params.n
    if not beta > gamma > 0:
        raise ValidationError("hypothesis failed: requires beta > gamma > 0")
    if n < 16:
        raise ValidationError("hypothesis failed: requires n >= 16 so log log n > 1")
    if c0 <= 0 or i0 <= 0:
        raise ValidationError("hypothesis failed: c0 and i0 must be positive")
    if not c0 < n ** (2.0 / 3.0):
        raise ValidationError("hypothesis failed: requires c0 < n^(2/3)")

    nu1 = ((beta - gamma) / beta) ** 1.5
    nu2 = 2.0 * (beta - gamma) / beta
    rho1 = 1.0 - 1.0 / math.log(math.log(n))
    rho2 = gamma / beta
    if rho1 <= rho2:
        raise ValidationError("hypothesis failed: rho1 <= rho2 (n too small for gamma/beta)")

    t_cr_lower = (
        (2.0 / 3.0) * math.log(nu1 * n / c0 ** 1.5)
        + math.log((nu1 ** (2.0 / 3.0) / c0) * (1.0 - c0 / n ** (2.0 / 3.0)))
    ) / (beta - gamma)

    denom = (rho2 / rho1) * (beta * rho1 - gamma) - (beta * rho2 / 2.0) * c0 / (n * (1.0 - rho1))
    if denom <= 0:
        raise ValidationError("hypothesis failed: C denominator not positive (c0 too large)")
    c_const = (rho1 - rho2) / denom
    t_star_upper = math.log(nu2 * n / i0) / (beta * rho1 - gamma) + c_const / (1.0 - rho1)

    return PeakBoundReport(
        nu1=nu1,
        nu2=nu2,
        rho1=rho1,
        t_cr_lower=t_cr_lower,
        t_star_upper=t_star_upper,
        c_const=c_const,
    )


def scaling_check(
    params: ModelParams,
    s0: float,
    i0: float,
    r0: float,
    eta: float,
    tol: float = 1e-10,
    samples: int = 2001,
) -> float:
    """Max relative deviation between the eta-scaled trajectory of (n, ICs)
    and the trajectory of (eta n, eta ICs); zero in exact arithmetic since
    scaling every compartment and n by eta leaves the dynamics invariant."""
    if eta <= 0:
        raise ValidationError("eta must be positive")
    t_max = default_t_max(params)
    base = integrate(params, s0, i0, r0, t_max=t_max, tol=tol, samples=samples)
    scaled_params = ModelParams(
        n=eta * params.n,
        beta=params.beta,
        gamma=params.gamma,
        p=params.p,
        regime=params.regime,
    )
    scaled = integrate(
        scaled_params, eta * s0, eta * i0, eta * r0, t_max=t_max, tol=tol, samples=samples
    )
    dev = 0.0
    denom = eta * params.n
    for a, b in ((base.s, scaled.s), (base.i, scaled.i), (base.r, scaled.r)):
        dev = max(dev, float(np.max(np.abs(eta * a - b)) / denom))
    return dev
