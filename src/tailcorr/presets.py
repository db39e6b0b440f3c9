"""Showcase model suites: distinct process classes sharing one TCF.

Two ready-made families demonstrate that the tail correlation function does
not identify the process class:

* the **erfc-sqrt suite**: a Brown-Resnick process with variogram 8|t|, a
  mixed Poisson storm process with an arctan intensity mixing law, a moving
  maxima process with a deterministic radial shape, and a random-ball mixture
  — all with chi(t) = erfc(sqrt(|t|)),
* the **bounded-gauss suite**: a Brown-Resnick process with the bounded
  variogram 1.62(1 - e^{-|t|}), an extremal Gaussian and an extremal binary
  Gaussian process with matched correlations — all with
  chi(t) = erfc(0.45 sqrt(1 - e^{-|t|})).  (0.45 = sqrt(1.62/8).)

The closed forms below are mutually consistent by construction.
:func:`erfc_sqrt_suite` and :func:`bounded_gauss_suite` declare the checks
of every pairing, which ``tailcorr reproduce`` and the acceptance gate run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _special
from .distributions import Distribution1D
from .errors import DomainError
from .models import (
    BRModel,
    EBGModel,
    EGModel,
    M2rModel,
    M3bModel,
    MPSModel,
    TcfModel,
    tcf,
)
from .operators import transform_S, transform_T
from .radial import (
    _abs_buffer,
    Correlation,
    RadialFunction,
    bounded_variogram,
    erfc_sqrt,
    exponential_correlation,
    fbm_variogram,
)
from .numerics import _integer, _reject, erfc
from .recovery import RecoveryInput, recover_radius_density, recover_shape
from .simulate import GridSpec

__all__ = [
    "erfc_sqrt_chi",
    "erfc_sqrt_shape",
    "erfc_sqrt_diameter_density",
    "erfc_sqrt_radius_law",
    "erfc_sqrt_mps_mixing",
    "erfc_sqrt_models",
    "erfc_sqrt_models_1d",
    "erfc_sqrt_suite",
    "bounded_gauss_chi",
    "bounded_gauss_lambda",
    "bounded_gauss_correlations",
    "bounded_gauss_models",
    "bounded_gauss_suite",
    "Check",
    "Suite",
    "REPRODUCTION_SUITES",
]


@dataclass(frozen=True)
class Check:
    """``computed`` (an array or a tuple of arrays) against ``closed_form``
    on ``points``; without ``computed``, a table of the closed form only."""

    columns: tuple[str, ...]
    points: np.ndarray
    closed_form: Callable
    computed: Callable | None = None
    relative: bool = False
    threshold: float | None = None

    def run(self) -> tuple[list[tuple], float]:
        """The artifact rows (point, computed..., closed form, deviation)
        and the worst deviation, NaN when any deviation is NaN."""
        want = np.asarray(self.closed_form(self.points), dtype=float)
        if self.computed is None:
            return list(zip(self.points.tolist(), want.tolist())), 0.0
        got = np.atleast_2d(self.computed(self.points))
        gap = np.max(np.abs(got - want), axis=0)
        if self.relative:
            gap /= np.abs(want)
        rows = [(x, *g, w, d) for x, g, w, d in zip(
            self.points.tolist(), got.T.tolist(), want.tolist(), gap.tolist())]
        return rows, float(np.max(gap, initial=0.0))


@dataclass(frozen=True)
class Suite:
    """Checks by artifact name, and the models simulated at ``lags``."""

    checks: dict[str, Check]
    simulated: dict[str, TcfModel]
    lags: tuple[float, ...]

    grid = GridSpec(dim=1, shape=(9,), spacing=0.5)
    chi_hat_columns = ("lag", "chi_hat", "std_err", "n", "chi", "deviation",
                       "threshold", "status")

    @staticmethod
    def chi_hat(model: TcfModel, estimates) -> tuple[list[tuple], float]:
        """Chi-hat rows and the worst margin (deviation minus threshold): a
        lag passes when |chi_hat - chi| <= max(0.02, 3 std errs).  The worst
        margin is NaN when any deviation is NaN."""
        rows, margins = [], []
        truths = tcf(model, [est.lag for est in estimates]).tolist()
        for est, true in zip(estimates, truths):
            threshold = max(0.02, 3.0 * est.std_err)
            gap = abs(est.chi_hat - true)
            rows.append((est.lag, est.chi_hat, est.std_err, est.n, true, gap,
                         threshold, "pass" if gap <= threshold else "fail"))
            margins.append(gap - threshold)
        return rows, float(np.max(margins, initial=-math.inf))


# ---------------------------------------------------------------------------
# erfc-sqrt suite: chi(t) = erfc(sqrt(t))
# ---------------------------------------------------------------------------


def erfc_sqrt_chi() -> RadialFunction:
    """The common TCF erfc(sqrt(t)) of the suite, with analytic derivatives."""
    return erfc_sqrt()


def erfc_sqrt_shape(dim: int = 3) -> RadialFunction:
    """The deterministic moving-maxima shape with TCF erfc(sqrt(t)).

    d=3: f(u) = (1 + 4u) e^{-2u} / (pi^{3/2} (2u)^{5/2});
    d=1: f(u) = e^{-2u} / sqrt(2 pi u).
    Both integrate to 1 over R^d and diverge algebraically at 0.
    """
    if _integer(dim, "dim", 1, 3) == 3:
        c = math.pi**1.5 * 2.0**2.5
        return RadialFunction(
            name="erfc_sqrt_shape_3d",
            func=lambda u: ((1.0 + 4.0 * u) * np.exp(-2.0 * u)
                            / (c * np.power(u, 2.5))),
            zero_exponent=-2.5,
        )
    if dim == 1:
        return RadialFunction(
            name="erfc_sqrt_shape_1d",
            func=lambda u: np.exp(-2.0 * u) / np.sqrt(2.0 * math.pi * u),
            zero_exponent=-0.5,
        )
    raise DomainError(f"shape available for dim 1 and 3 only, got {dim!r}")


def erfc_sqrt_diameter_density(dim: int = 3):
    """Density k of the ball diameter 2R in the random-ball representation.

    d=3: k(s) = (4s^2 + 8s + 5) e^{-s} / (12 sqrt(pi s));
    d=1: k(s) = (2s + 1) e^{-s} / (2 sqrt(pi s)).
    """
    if _integer(dim, "dim", 1, 3) == 3:
        return lambda s: ((4.0 * s * s + 8.0 * s + 5.0) * np.exp(-s)
                          / (12.0 * np.sqrt(math.pi * s)))
    if dim == 1:
        return lambda s: ((2.0 * s + 1.0) * np.exp(-s)
                          / (2.0 * np.sqrt(math.pi * s)))
    raise DomainError(f"density available for dim 1 and 3 only, got {dim!r}")


def erfc_sqrt_radius_law(dim: int = 3) -> Distribution1D:
    """Law of the ball radius R (the diameter density rescaled to R = S/2)."""
    k = erfc_sqrt_diameter_density(dim)
    return Distribution1D(
        name=f"erfc_sqrt_radius_{dim}d",
        pdf=lambda r: 2.0 * k(2.0 * r),
        support=(0.0, math.inf),
        pdf_singular_exponent=-0.5,
    )


def erfc_sqrt_mps_mixing() -> Distribution1D:
    """Intensity mixing law F(s) = (2/pi) arctan(sqrt(2s/pi - 1)) on
    (pi/2, inf); its d=2 storm-process Laplace transform is erfc(sqrt(t))."""
    half_pi = 0.5 * math.pi

    def cdf(s: float) -> float:
        if s <= half_pi:
            return 0.0
        return (2.0 / math.pi) * math.atan(math.sqrt(2.0 * s / math.pi - 1.0))

    def pdf(s):
        above = np.asarray(s) > half_pi
        t = np.where(above, s, math.pi)
        return np.where(above, 1.0 / (math.pi * t
                                      * np.sqrt(2.0 * t / math.pi - 1.0)), 0.0)

    def quantile(q: float) -> float:
        return half_pi * (1.0 + math.tan(half_pi * q) ** 2)

    return Distribution1D(
        name="erfc_sqrt_mps_mixing",
        cdf=cdf,
        pdf=pdf,
        support=(half_pi, math.inf),
        quantile=quantile,
        pdf_singular_exponent=-0.5,
    )


def erfc_sqrt_models() -> dict[str, TcfModel]:
    """The four-process suite sharing chi(t) = erfc(sqrt(t)).

    The moving-maxima members live on R^3 (their 2-D sections carry the same
    TCF); the Brown-Resnick and storm members live on R^2.
    """
    return {
        "BR": BRModel(dim=2, variogram=fbm_variogram(8.0, 1.0)),
        "MPS": MPSModel(dim=2, mixing=erfc_sqrt_mps_mixing()),
        "M2r": M2rModel(dim=3, shape=erfc_sqrt_shape(3)),
        "M3b": M3bModel(dim=3, radius=erfc_sqrt_radius_law(3)),
    }


def erfc_sqrt_models_1d() -> dict[str, TcfModel]:
    """One-dimensional moving-maxima members with TCF erfc(sqrt(t)),
    obtained from the d=1 inversion formulas; used by the simulation loop."""
    return {
        "M2r": M2rModel(dim=1, shape=erfc_sqrt_shape(1)),
        "M3b": M3bModel(dim=1, radius=erfc_sqrt_radius_law(1)),
    }


def erfc_sqrt_suite() -> Suite:
    """The erfc-sqrt checks: the TCF, its d=3 inversion, the d=2 storm
    Laplace identity, and the d=1 simulation loop for BR / M2r / M3b."""
    chi = erfc_sqrt_chi()
    inp = RecoveryInput(chi=chi, dim=3)
    storm = MPSModel(dim=2, mixing=erfc_sqrt_mps_mixing())
    xs = np.geomspace(1e-2, 1e1, 100)
    return Suite(
        checks={
            "chi": Check(("t", "chi"), np.geomspace(1e-3, 1e2, 200), chi),
            "shape_recovery": Check(
                ("u", "recovered", "closed_form", "rel_deviation"), xs,
                erfc_sqrt_shape(3), lambda u: recover_shape(inp, u),
                relative=True, threshold=1e-6),
            "radius_recovery": Check(
                ("s", "recovered", "closed_form", "rel_deviation"), xs,
                erfc_sqrt_diameter_density(3),
                lambda s: recover_radius_density(inp, s),
                relative=True, threshold=1e-6),
            "mps_laplace": Check(
                ("t", "laplace_transform", "erfc_sqrt", "deviation"),
                np.linspace(0.05, 5.0, 60), chi,
                lambda t: tcf(storm, t, tol=1e-10), threshold=1e-6),
        },
        simulated={"BR": BRModel(dim=1, variogram=fbm_variogram(8.0, 1.0)),
                   **erfc_sqrt_models_1d()},
        lags=(0.5, 1.0, 1.5, 2.0),
    )


# ---------------------------------------------------------------------------
# bounded-gauss suite: chi(t) = erfc(0.45 sqrt(1 - e^{-t}))
# ---------------------------------------------------------------------------


def bounded_gauss_lambda() -> float:
    """The variogram sill 1.62 (= 8 * 0.45^2) of the suite."""
    return 1.62


def bounded_gauss_chi():
    """The common TCF erfc(0.45 sqrt(1 - e^{-t})) as a callable of floats
    and arrays."""
    return lambda t: erfc(0.45 * np.sqrt(-np.expm1(-np.abs(t))))


def _bounded_gauss_erf(t) -> np.ndarray:
    """erf(0.45 sqrt(1 - e^-|t|)) in one new buffer, with the NaN check of
    :func:`~tailcorr.numerics.erf`."""
    e = _abs_buffer(t)
    np.negative(e, out=e)
    np.expm1(e, out=e)
    np.negative(e, out=e)
    np.sqrt(e, out=e)
    e *= 0.45
    _reject(e, np.isnan(e), "x must not contain NaN")
    return _special.erf(e, out=e)


def bounded_gauss_correlations() -> tuple[Correlation, Correlation]:
    """Correlations (rho_EG, rho_EBG) matched so that the extremal Gaussian
    and extremal binary Gaussian processes share the suite's TCF."""

    # Each in one buffer: the bits of ``e = erf(0.45 * np.sqrt(-np.expm1(
    # -np.abs(t))))``, ``1.0 - 2.0 * e * e`` and ``np.cos(math.pi * e)``
    # without their temporaries.  2 (e e) is (2 e) e wherever e e is a
    # normal float, and below that both are under 2^-1021, so 1 minus
    # either is 1.

    def rho_eg(t):
        e = _bounded_gauss_erf(t)
        np.multiply(e, e, out=e)
        e *= 2.0
        return np.subtract(1.0, e, out=e)

    def rho_ebg(t):
        e = _bounded_gauss_erf(t)
        e *= math.pi
        return np.cos(e, out=e)

    return (Correlation("bounded_gauss_rho_eg", rho_eg),
            Correlation("bounded_gauss_rho_ebg", rho_ebg))


def bounded_gauss_models(dim: int = 1) -> dict[str, TcfModel]:
    """The three-process suite sharing chi(t) = erfc(0.45 sqrt(1 - e^{-t}))."""
    rho_eg, rho_ebg = bounded_gauss_correlations()
    gamma = bounded_variogram(bounded_gauss_lambda(), exponential_correlation())
    return {
        "BR": BRModel(dim=dim, variogram=gamma),
        "EG": EGModel(dim=dim, correlation=rho_eg),
        "EBG": EBGModel(dim=dim, correlation=rho_ebg),
    }


def bounded_gauss_suite() -> Suite:
    """The bounded-gauss checks: the S/T transform identities, the
    three-way TCF agreement, and the d=1 simulation loop for EG / EBG / BR."""
    lam = bounded_gauss_lambda()
    rho_eg, rho_ebg = bounded_gauss_correlations()
    models = bounded_gauss_models(dim=1)
    ts = np.geomspace(1e-3, 1e2, 200)
    columns = ("t", "transformed", "closed_form", "deviation")
    return Suite(
        checks={
            "rho_eg": Check(columns, ts, rho_eg,
                            lambda t: transform_S(lam, np.exp(-t)),
                            threshold=1e-12),
            "rho_ebg": Check(columns, ts, rho_ebg,
                             lambda t: transform_T(lam, np.exp(-t)),
                             threshold=1e-12),
            "tcf_agreement": Check(
                ("t", "chi_br", "chi_eg", "chi_ebg", "target", "deviation"),
                ts, bounded_gauss_chi(),
                lambda t: tuple(tcf(models[name], t)
                                for name in ("BR", "EG", "EBG")),
                threshold=1e-12),
        },
        simulated={name: models[name] for name in ("EG", "EBG", "BR")},
        lags=(0.5, 1.0, 2.0),
    )


#: Suite name -> the function that builds it.
REPRODUCTION_SUITES = {"erfc-sqrt": erfc_sqrt_suite,
                       "bounded-gauss": bounded_gauss_suite}
