"""Radial functions, variograms, and correlation functions.

A :class:`RadialFunction` is a function of a non-negative scalar radius.  It
is the common currency of the package: candidate tail correlation functions,
storm shapes, ball-convolution kernels, and turning-bands inputs are all
radial functions.  The wrapper records what plain callables cannot express:

* analytic derivatives up to order 3 where available,
* declared kink abscissae (numeric differentiation refuses to straddle them),
* a support bound for compactly supported functions,
* the algebraic growth exponent at 0 for shapes that blow up there,
* family metadata (name + parameters) consumed by the classification rules.

:class:`Variogram` and :class:`Correlation` are the analogous wrappers for
the Gaussian-process model classes.
Each wrapper's ``func`` takes a float or a whole array of distances; the
``*_from_callable`` helpers lift a callable that only takes floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _special

from .errors import DomainError, KinkError, TailcorrError
from .numerics import kappa_d, num_derivative

__all__ = [
    "RadialFunction",
    "Variogram",
    "Correlation",
    "radial_from_callable",
    "tent",
    "exponential_decay",
    "erfc_sqrt",
    "powered_erfc",
    "powered_exponential",
    "whittle_matern",
    "generalized_cauchy",
    "truncated_power",
    "ball_indicator",
    "fbm_variogram",
    "bounded_variogram",
    "variogram_from_callable",
    "exponential_correlation",
    "correlation_from_callable",
]

_KINK_EPS = 1e-12


def _lift(func: Callable[[float], float]) -> Callable:
    """Lift a scalar-only callable to floats and arrays, element by element."""

    def lifted(x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            return float(func(float(arr)))
        return np.array([float(func(float(v))) for v in arr.ravel()]
                        ).reshape(arr.shape)

    return lifted


def _probe(func: Callable, points, what: str, helper: str) -> np.ndarray:
    """``func`` on a small array; rejects a callable that only takes floats."""
    arr = np.array(points, dtype=float)
    try:
        values = np.asarray(func(arr), dtype=float)
    except TailcorrError:
        raise
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != arr.shape:
        raise DomainError(f"{what} must take arrays of distances; wrap a "
                          f"scalar callable with {helper}")
    return values


def _evaluate(func: Callable, x):
    """``func`` at a float (float out) or an array (same-shape array out)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return float(func(float(arr)))
    return np.asarray(func(arr), dtype=float)


@dataclass(frozen=True)
class RadialFunction:
    """A function of radius r >= 0 with differentiation metadata.

    ``func`` must be finite on (0, inf); it may diverge at 0 with declared
    algebraic exponent ``zero_exponent`` (``func(u) ~ u^zero_exponent``),
    which integrators use to handle the singularity.
    """

    name: str
    func: Callable
    deriv1: Callable[[float], float] | None = None
    deriv2: Callable[[float], float] | None = None
    deriv3: Callable[[float], float] | None = None
    kinks: tuple[float, ...] = ()
    support_bound: float | None = None
    zero_exponent: float = 0.0
    family: str | None = None
    param: float | None = None
    completely_monotone: bool | None = None

    def __post_init__(self) -> None:
        if list(self.kinks) != sorted(self.kinks):
            raise DomainError(f"kinks must be sorted, got {self.kinks!r}")
        if self.support_bound is not None and self.support_bound <= 0:
            raise DomainError(
                f"support_bound must be positive, got {self.support_bound!r}")
        probes = (0.73, 1.37)
        values = _probe(self.func, probes, f"radial function {self.name!r}",
                        "radial_from_callable")
        for probe, v in zip(probes, values):
            if not math.isfinite(v):
                raise DomainError(
                    f"radial function {self.name!r} is not finite at r={probe}")

    def __call__(self, r):
        if np.any(np.asarray(r, dtype=float) < 0):
            raise DomainError(f"radius must be >= 0, got {r!r}")
        return _evaluate(self.func, r)

    @property
    def has_compact_support(self) -> bool:
        return self.support_bound is not None

    def nearest_kink(self, r: float) -> float | None:
        if not self.kinks:
            return None
        return min(self.kinks, key=lambda k: abs(k - r))

    def derivative(self, r: float, order: int) -> float:
        """Derivative of the given order at r > 0.

        Uses the analytic derivative when present, numeric differentiation
        otherwise.  Refuses (KinkError) exactly on a declared kink, where no
        two-sided derivative exists.
        """
        if order not in (1, 2, 3):
            raise DomainError(f"order must be 1, 2 or 3, got {order!r}")
        k = self.nearest_kink(r)
        if k is not None and abs(r - k) <= _KINK_EPS * max(1.0, abs(r)):
            raise KinkError(
                f"{self.name!r} has a kink at {k}; no order-{order} derivative there",
                x=r, kink=k)
        analytic = (self.deriv1, self.deriv2, self.deriv3)[order - 1]
        if analytic is not None:
            return float(analytic(float(r)))
        return num_derivative(self.func, float(r), order, kinks=self.kinks).value


def radial_from_callable(name: str, func: Callable[[float], float],
                         **meta) -> RadialFunction:
    """Wrap a scalar callable as a RadialFunction; meta fields pass through."""
    return RadialFunction(name=name, func=_lift(func), **meta)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def tent() -> RadialFunction:
    """The tent function max(0, 1 - r): continuous, convex, compact support."""
    return RadialFunction(
        name="tent",
        func=lambda r: np.maximum(0.0, 1.0 - r),
        deriv1=lambda r: -1.0 if r < 1.0 else 0.0,
        deriv2=lambda r: 0.0,
        deriv3=lambda r: 0.0,
        kinks=(1.0,),
        support_bound=1.0,
        family="tent",
        completely_monotone=False,
    )


def exponential_decay(scale: float = 1.0) -> RadialFunction:
    """exp(-r/scale); completely monotone."""
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale!r}")
    s = float(scale)
    return RadialFunction(
        name=f"exp(-r/{s:g})" if s != 1.0 else "exp(-r)",
        func=lambda r: np.exp(-r / s),
        deriv1=lambda r: -math.exp(-r / s) / s,
        deriv2=lambda r: math.exp(-r / s) / s**2,
        deriv3=lambda r: -math.exp(-r / s) / s**3,
        family="exponential",
        param=s,
        completely_monotone=True,
    )


def erfc_sqrt() -> RadialFunction:
    """erfc(sqrt(r)); completely monotone, smooth on (0, inf).

    Analytic derivatives:
        d/dr   = -e^{-r} / sqrt(pi r)
        d²/dr² = e^{-r} (2r+1) / (2 sqrt(pi) r^{3/2})
        d³/dr³ = -e^{-r} (4r²+4r+3) / (4 sqrt(pi) r^{5/2})
    """
    sq = math.sqrt

    return RadialFunction(
        name="erfc(sqrt(r))",
        func=lambda r: _special.erfc(np.sqrt(r)),
        deriv1=lambda r: -math.exp(-r) / sq(math.pi * r),
        deriv2=lambda r: math.exp(-r) * (2.0 * r + 1.0) / (2.0 * sq(math.pi) * r**1.5),
        deriv3=lambda r: -math.exp(-r) * (4.0 * r * (r + 1.0) + 3.0)
        / (4.0 * sq(math.pi) * r**2.5),
        family="powered_erfc",
        param=0.5,
        completely_monotone=True,
    )


def powered_erfc(nu: float) -> RadialFunction:
    """erfc(r^nu) for nu > 0; completely monotone iff nu <= 1/2."""
    if nu <= 0:
        raise DomainError(f"nu must be positive, got {nu!r}")
    if nu == 0.5:
        return erfc_sqrt()
    n = float(nu)
    c = 2.0 / math.sqrt(math.pi)
    return RadialFunction(
        name=f"erfc(r^{n:g})",
        func=lambda r: _special.erfc(np.power(r, n)),
        deriv1=lambda r: -c * n * r ** (n - 1.0) * math.exp(-(r ** (2.0 * n))),
        family="powered_erfc",
        param=n,
        completely_monotone=n <= 0.5,
    )


def powered_exponential(nu: float) -> RadialFunction:
    """exp(-r^nu) for nu in (0, 2]; completely monotone iff nu <= 1."""
    if not 0 < nu <= 2:
        raise DomainError(f"nu must be in (0, 2], got {nu!r}")
    if nu == 1.0:
        return exponential_decay()
    n = float(nu)
    return RadialFunction(
        name=f"exp(-r^{n:g})",
        func=lambda r: np.exp(-np.power(r, n)),
        deriv1=lambda r: -n * r ** (n - 1.0) * math.exp(-(r**n)),
        family="powered_exponential",
        param=n,
        completely_monotone=n <= 1.0,
    )


def whittle_matern(nu: float) -> RadialFunction:
    """2^{1-nu} Gamma(nu)^{-1} r^nu K_nu(r); equals 1 at r=0.

    Completely monotone iff nu <= 1/2.
    """
    if nu <= 0:
        raise DomainError(f"nu must be positive, got {nu!r}")
    n = float(nu)
    const = 2.0 ** (1.0 - n) / math.gamma(n)

    def f(r):
        with np.errstate(invalid="ignore"):  # 0 * K_nu(0) = 0 * inf
            body = const * np.power(r, n) * _special.kv(n, r)
        # Near 0 (r = 0 included) K_nu overflows and the product is
        # 0 * inf or inf, where the limit is 1; K_nu underflows beyond 705,
        # where the value is 0 to double precision.
        near_zero = (r < 1.0) & ~np.isfinite(body)
        return np.where(near_zero, 1.0, np.where(r > 705.0, 0.0, body))[()]

    return RadialFunction(
        name=f"whittle_matern(nu={n:g})",
        func=f,
        family="whittle_matern",
        param=n,
        completely_monotone=n <= 0.5,
    )


def generalized_cauchy(nu: float, beta: float = 1.0) -> RadialFunction:
    """(1 + r^nu)^{-beta} for nu in (0, 2], beta > 0.

    Completely monotone iff nu <= 1.
    """
    if not 0 < nu <= 2:
        raise DomainError(f"nu must be in (0, 2], got {nu!r}")
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    n, b = float(nu), float(beta)
    return RadialFunction(
        name=f"cauchy(nu={n:g}, beta={b:g})",
        func=lambda r: np.power(1.0 + np.power(r, n), -b),
        deriv1=lambda r: -b * n * r ** (n - 1.0) * (1.0 + r**n) ** (-b - 1.0),
        family="cauchy",
        param=n,
        completely_monotone=n <= 1.0,
    )


def truncated_power(nu: float) -> RadialFunction:
    """(1 - r)_+^nu for nu > 0; compact support [0, 1]."""
    if nu <= 0:
        raise DomainError(f"nu must be positive, got {nu!r}")
    n = float(nu)
    return RadialFunction(
        name=f"truncated_power(nu={n:g})",
        func=lambda r: np.power(np.maximum(0.0, 1.0 - r), n),
        deriv1=lambda r: -n * (1.0 - r) ** (n - 1.0) if r < 1.0 else 0.0,
        kinks=(1.0,),
        support_bound=1.0,
        family="truncated_power",
        param=n,
        completely_monotone=False,
    )


def ball_indicator(d: int, radius: float = 1.0) -> RadialFunction:
    """Normalized ball indicator 1_{r <= radius} / (kappa_d radius^d).

    Integrates to 1 over R^d; the building block of the ball-mixture model.
    """
    if radius <= 0:
        raise DomainError(f"radius must be positive, got {radius!r}")
    height = 1.0 / (kappa_d(d) * float(radius) ** d)
    rad = float(radius)
    return RadialFunction(
        name=f"ball_indicator(d={d}, radius={rad:g})",
        func=lambda r: height * (r <= rad),
        kinks=(rad,),
        support_bound=rad,
        family="ball_indicator",
        param=rad,
        completely_monotone=False,
    )


# ---------------------------------------------------------------------------
# Variograms and correlations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Correlation:
    """A stationary correlation function of distance: rho(0)=1, |rho| <= 1."""

    name: str
    func: Callable
    tag: str = "user"
    scale: float | None = None

    def __post_init__(self) -> None:
        probes = (0.0, 0.31, 1.7, 23.0)
        values = _probe(self.func, probes, f"correlation {self.name!r}",
                        "correlation_from_callable")
        if abs(values[0] - 1.0) > 1e-12:
            raise DomainError(
                f"correlation {self.name!r} must equal 1 at distance 0")
        for probe, v in zip(probes[1:], values[1:]):
            if not (-1.0 - 1e-12 <= v <= 1.0 + 1e-12):
                raise DomainError(
                    f"correlation {self.name!r} leaves [-1,1] at distance {probe}")

    def __call__(self, t):
        return _evaluate(self.func, t)


def exponential_correlation(scale: float = 1.0) -> Correlation:
    """rho(t) = exp(-t/scale)."""
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale!r}")
    s = float(scale)
    return Correlation(
        name=f"exp(-t/{s:g})" if s != 1.0 else "exp(-t)",
        func=lambda t: np.exp(-np.abs(t) / s),
        tag="exponential",
        scale=s,
    )


def correlation_from_callable(name: str, func: Callable[[float], float]
                              ) -> Correlation:
    """Wrap a scalar callable as a Correlation."""
    return Correlation(name=name, func=_lift(func), tag="user")


@dataclass(frozen=True)
class Variogram:
    """A variogram gamma(t) >= 0 with gamma(0) = 0, as a function of distance.

    ``fbm`` variograms are scale * t^alpha (fractional-Brownian type);
    ``bounded`` variograms are lam * (1 - rho(t)) for a correlation rho.
    """

    name: str
    func: Callable
    tag: str = "user"
    scale: float | None = None
    alpha: float | None = None
    lam: float | None = None
    correlation: Correlation | None = None

    def __post_init__(self) -> None:
        probes = (0.0, 0.31, 1.7, 23.0)
        values = _probe(self.func, probes, f"variogram {self.name!r}",
                        "variogram_from_callable")
        if abs(values[0]) > 1e-12:
            raise DomainError(f"variogram {self.name!r} must vanish at 0")
        for probe, v in zip(probes[1:], values[1:]):
            if v < -1e-12:
                raise DomainError(
                    f"variogram {self.name!r} is negative at distance {probe}")
        if self.tag == "fbm":
            if self.alpha is None or not 0 < self.alpha <= 2:
                raise DomainError(
                    f"fbm variogram needs alpha in (0,2], got {self.alpha!r}")
            if self.scale is None or self.scale <= 0:
                raise DomainError(
                    f"fbm variogram needs a positive scale, got {self.scale!r}")
        if self.tag == "bounded":
            if self.lam is None or self.lam <= 0:
                raise DomainError(
                    f"bounded variogram needs lam > 0, got {self.lam!r}")
            if self.correlation is None:
                raise DomainError("bounded variogram needs a correlation")

    def __call__(self, t):
        return _evaluate(self.func, t)


def fbm_variogram(scale: float, alpha: float) -> Variogram:
    """gamma(t) = scale * |t|^alpha, alpha in (0, 2]."""
    s, a = float(scale), float(alpha)
    return Variogram(
        name=f"{s:g}*t^{a:g}",
        func=lambda t: s * np.power(np.abs(t), a),
        tag="fbm",
        scale=s,
        alpha=a,
    )


def bounded_variogram(lam: float, correlation: Correlation) -> Variogram:
    """gamma(t) = lam * (1 - rho(t)) for a correlation rho."""
    lamf = float(lam)
    return Variogram(
        name=f"{lamf:g}*(1-{correlation.name})",
        func=lambda t: lamf * (1.0 - correlation.func(np.abs(t))),
        tag="bounded",
        lam=lamf,
        correlation=correlation,
    )


def variogram_from_callable(name: str, func: Callable[[float], float]
                            ) -> Variogram:
    """Wrap a scalar callable as a Variogram."""
    return Variogram(name=name, func=_lift(func), tag="user")
