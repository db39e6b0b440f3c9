"""TCF-preserving operators: correlation transforms, turning bands,
overlap multiplication, and the associated constructive functions.

Three exact maps send correlation functions to TCFs or TCFs to TCFs:

* ``R(x) = cos(pi sqrt((1-x)/2))``,
* ``S_lambda(x) = 1 - 2 erf(sqrt(lambda (1-x)/8))^2``,
* ``T_lambda = R o S_lambda``,

each admissible (correlation-function preserving) exactly when its Taylor
coefficients at 0 are nonnegative from order 1 on and the 0-th is >= 0.
The alpha-shifted variants precompose with ``x -> (1-alpha) x + alpha``; for
S and T this only rescales lambda to lambda (1-alpha).  The admissibility
thresholds are ``8 erf_inv(1/sqrt 2)^2`` for S and ``8 erf_inv(1/2)^2``
for T; :func:`taylor_abs_monotone` exposes the coefficients themselves.

The turning bands operator maps a radial function on R^d to a radial
function on R^k (k <= d) by averaging over random k-frames.  For radial
input the Stiefel-manifold average collapses to a one-dimensional mixture,

    tb_k^d(chi)(r) = E[chi(r sqrt(B))],   B ~ Beta(k/2, (d-k)/2),

because the squared norm of the projection of a fixed unit vector onto a
uniformly random k-frame is Beta(k/2, (d-k)/2).  This reduction is an
implementation choice and is validated against the direct Monte Carlo
average over orthonormalized Gaussian frames (:func:`turning_bands_mc`).

From the tent TCF the operator produces phi_d = tb_1^d(tent), linear with
slope beta_d on [0,1]; multiplying phi_d(2t) by the ball overlap kernel
h_d(t) gives the compactly supported TCF chi_d used to separate storm
classes.  The convexity diagnostic c(t) and the curvature diagnostic psi(r)
quantify where such products leave the classical classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import Distribution1D
from .errors import DomainError, KinkError, TailcorrError
from .models import M3bModel, _monte_carlo, h_d, overlap_integral, tcf_result
from .numerics import (
    SpecialFnResult,
    beta_d,
    erf_inv,
    erfc,
    erfc_inv,
    num_derivative,
    quadrature,
)
from .radial import RadialFunction, radial_from_callable, tent

__all__ = [
    "S_ADMISSIBLE_LIMIT",
    "T_ADMISSIBLE_LIMIT",
    "transform_R",
    "transform_S",
    "transform_T",
    "TransformSpec",
    "transform_bound",
    "is_admissible",
    "apply_transform",
    "TaylorReport",
    "taylor_abs_monotone",
    "TurningBandsSpec",
    "turning_bands",
    "turning_bands_mc",
    "phi_d",
    "phi_d_neg_deriv_sqrt",
    "phi_d_radial",
    "chi_d",
    "chi_d_neg_deriv_sqrt",
    "chi_d_radial",
    "BallOverlap",
    "EnsembleOverlap",
    "overlap_factor",
    "multiply_overlap",
    "gneiting_c",
    "c_second_deriv_at_1",
    "midpoint_convexity_violation",
    "implied_br_variogram",
    "implied_br_curvature_min",
    "erf_square_complement",
    "erf_square_complement_deriv1",
]

#: Largest lambda (at alpha = 0) for which S_lambda maps correlation
#: functions to correlation functions: 8 erf_inv(1/sqrt 2)^2.
S_ADMISSIBLE_LIMIT = 8.0 * float(erf_inv(1.0 / math.sqrt(2.0))) ** 2

#: Largest lambda (at alpha = 0) for which T_lambda does: 8 erf_inv(1/2)^2.
T_ADMISSIBLE_LIMIT = 8.0 * float(erf_inv(0.5)) ** 2


def _check_x(x: float) -> float:
    xf = float(x)
    if not -1.0 <= xf <= 1.0:
        raise DomainError(f"transform argument must lie in [-1, 1], got {x!r}")
    return xf


def _check_lam(lam: float) -> float:
    lf = float(lam)
    if lf <= 0:
        raise DomainError(f"lambda must be > 0, got {lam!r}")
    return lf


def transform_R(x: float) -> float:
    """``cos(pi sqrt((1-x)/2))`` on [-1, 1]."""
    xf = _check_x(x)
    return math.cos(math.pi * math.sqrt((1.0 - xf) / 2.0))


def transform_S(lam: float, x: float) -> float:
    """``1 - 2 erf(sqrt(lambda (1-x)/8))^2`` on [-1, 1]."""
    xf = _check_x(x)
    lf = _check_lam(lam)
    e = math.erf(math.sqrt(lf * (1.0 - xf) / 8.0))
    return 1.0 - 2.0 * e * e


def transform_T(lam: float, x: float) -> float:
    """``cos(pi erf(sqrt(lambda (1-x)/8)))`` on [-1, 1]."""
    xf = _check_x(x)
    lf = _check_lam(lam)
    return math.cos(math.pi * math.erf(math.sqrt(lf * (1.0 - xf) / 8.0)))


@dataclass(frozen=True)
class TransformSpec:
    """A correlation transform with shift: map in {R, S, T}, lambda, alpha.

    The alpha-shifted map is ``x -> map((1-alpha) x + alpha)``; lambda is
    ignored for R.
    """

    map: str
    lam: float = 1.0
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.map not in ("R", "S", "T"):
            raise DomainError(f"map must be 'R', 'S' or 'T', got {self.map!r}")
        if self.map != "R":
            _check_lam(self.lam)
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha!r}")


def transform_bound(map: str, alpha: float) -> float:
    """Largest admissible lambda for S or T at the given shift alpha."""
    if map not in ("S", "T"):
        raise DomainError(f"bound applies to 'S' or 'T', got {map!r}")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    base = S_ADMISSIBLE_LIMIT if map == "S" else T_ADMISSIBLE_LIMIT
    if alpha == 1.0:
        return math.inf
    return base / (1.0 - alpha)


def is_admissible(spec: TransformSpec) -> bool:
    """Whether the shifted map sends correlation functions to correlation
    functions."""
    if spec.map == "R":
        return spec.alpha >= 0.5
    limit = S_ADMISSIBLE_LIMIT if spec.map == "S" else T_ADMISSIBLE_LIMIT
    return spec.lam * (1.0 - spec.alpha) <= limit


def apply_transform(spec: TransformSpec, x: float) -> float:
    """Evaluate the alpha-shifted transform at x in [-1, 1]."""
    xf = _check_x(x)
    shifted = (1.0 - spec.alpha) * xf + spec.alpha
    if spec.map == "R":
        return transform_R(shifted)
    if spec.map == "S":
        return transform_S(spec.lam, shifted)
    return transform_T(spec.lam, shifted)


# ---------------------------------------------------------------------------
# Taylor coefficients at 0 (absolute monotonicity diagnostics)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaylorReport:
    """Maclaurin coefficients of a shifted transform.

    ``coeffs[k]`` is the order-k coefficient; ``coeff0`` repeats the 0-th
    (the only one whose sign may flip with lambda); ``all_nonneg_from_1``
    summarizes the signs of orders >= 1; ``tail_bound`` bounds the series
    truncation error of the reported coefficients.
    """

    coeffs: tuple[float, ...]
    coeff0: float
    all_nonneg_from_1: bool
    tail_bound: float


_MAX_ORDER = 60


def _r_base_coefficients(n_coeffs: int) -> tuple[list[float], float]:
    """Maclaurin coefficients of R via the explicit odd-product series.

    The order-k coefficient is ``pi^{2k}/(2^{2k} k!) * a_k`` with

        a_k = sum_n (-1)^n pi^{2n} / (2^n (2n)!) / prod_{j=1}^k (2n+2j-1),

    summed until the terms drop below 1e-18.
    """
    coeffs = []
    worst_tail = 0.0
    for k in range(n_coeffs):
        total = 0.0
        n = 0
        while True:
            log_term = 2 * n * math.log(math.pi) - n * math.log(2.0) \
                - math.lgamma(2 * n + 1)
            prod = sum(math.log(2 * n + 2 * j - 1) for j in range(1, k + 1))
            term = math.exp(log_term - prod)
            total += (-1) ** n * term
            if term < 1e-18:
                worst_tail = max(worst_tail, term)
                break
            n += 1
        scale = math.exp(2 * k * math.log(math.pi) - 2 * k * math.log(2.0)
                         - math.lgamma(k + 1))
        coeffs.append(scale * total)
    return coeffs, worst_tail


def _erf_sq_complement_series(n_coeffs: int) -> list[float]:
    """Maclaurin coefficients of ``1 - erf(sqrt x)^2`` (entire in x).

    With ``erf(sqrt x) = sqrt(x) p(x)``, ``p_m = (2/sqrt pi)(-1)^m /
    (m! (2m+1))``, the function is ``1 - x p(x)^2``.
    """
    m = n_coeffs + 2
    p = [2.0 / math.sqrt(math.pi) * (-1) ** i
         * math.exp(-math.lgamma(i + 1) - math.log(2 * i + 1))
         for i in range(m)]
    q = [0.0] * m
    for i in range(m):
        for j in range(m - i):
            q[i + j] += p[i] * p[j]
    coeffs = [1.0] + [-q[j - 1] for j in range(1, n_coeffs)]
    return coeffs


def _shifted_binomial(coeffs: Sequence[float], x0: float, order: int
                      ) -> tuple[list[float], float]:
    """Coefficients of ``x -> g(x0 (1 - x))`` given Maclaurin coeffs of g.

    Returns the order-0..order coefficients and a bound on the neglected
    tail (the largest dropped term magnitude).
    """
    out = [0.0] * (order + 1)
    tail = 0.0
    for k in range(order + 1):
        sign = (-1) ** k
        acc = 0.0
        last = 0.0
        for j in range(k, len(coeffs)):
            last = coeffs[j] * x0**j * math.comb(j, k)
            acc += last
        out[k] = sign * acc
        tail = max(tail, abs(last))
    return out, tail


def _poly_mul(a: Sequence[float], b: Sequence[float], order: int) -> list[float]:
    out = [0.0] * (order + 1)
    for i, ai in enumerate(a):
        if i > order or ai == 0.0:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def taylor_abs_monotone(map: str, lam: float = 1.0, alpha: float = 0.0,
                        order: int = 40) -> TaylorReport:
    """Maclaurin coefficients of the alpha-shifted transform at 0.

    The map is absolutely monotone on [0, 1] (hence correlation-function
    preserving) exactly when all reported coefficients of order >= 1 are
    nonnegative and ``coeff0 >= 0``; for admissible parameters only the
    0-th coefficient can go negative.
    """
    if order < 1 or order > _MAX_ORDER:
        raise DomainError(f"order must lie in 1..{_MAX_ORDER}, got {order!r}")
    spec = TransformSpec(map=map, lam=lam, alpha=alpha)

    if map == "R":
        # R_alpha = R((1-alpha) x + alpha): compose the base series with the
        # affine shift; orders >= 1 only involve base orders >= 1.
        base, tail = _r_base_coefficients(order + 41)
        a, s = spec.alpha, 1.0 - spec.alpha
        coeffs = [transform_R(a)]
        for k in range(1, order + 1):
            acc = 0.0
            for m_i in range(k, len(base)):
                acc += base[m_i] * math.comb(m_i, k) * a ** (m_i - k)
            coeffs.append(acc * s**k)
        report_tail = tail * 2.0
    else:
        lam_eff = spec.lam * (1.0 - spec.alpha)
        if lam_eff == 0.0:
            # alpha = 1 collapses S and T to the constant 1.
            coeffs = [1.0] + [0.0] * order
            return TaylorReport(tuple(coeffs), 1.0, True, 0.0)
        x0 = lam_eff / 8.0
        f_coeffs = _erf_sq_complement_series(order + 120)
        f_shift, tail = _shifted_binomial(f_coeffs, x0, order)
        if map == "S":
            # S(x) = 2 f(x0 (1-x)) - 1.
            coeffs = [2.0 * c for c in f_shift]
            coeffs[0] -= 1.0
            coeffs[0] = transform_S(lam_eff, 0.0)
            report_tail = 2.0 * tail
        else:
            # T = C(g) with C(u) = cos(pi sqrt u) entire and
            # g(x) = 1 - f(x0 (1-x)); expand C about g0 = g(0) and compose
            # with the polynomial h = g - g0 (h(0) = 0, so orders <= k of
            # the composition need only h powers up to k).
            g = [-c for c in f_shift]
            g[0] += 1.0
            g0 = g[0]
            h = [0.0] + g[1:]
            coeffs = [0.0] * (order + 1)
            h_pow = [1.0]
            comp_tail = 0.0
            for m_i in range(order + 1):
                deriv_over_fact = 0.0
                n = m_i
                while True:
                    b_n = (-1) ** n * math.exp(
                        2 * n * math.log(math.pi) - math.lgamma(2 * n + 1))
                    term = b_n * math.comb(n, m_i) * g0 ** (n - m_i)
                    deriv_over_fact += term
                    if abs(term) < 1e-22 and n > m_i + 4:
                        comp_tail = max(comp_tail, abs(term))
                        break
                    n += 1
                for idx, hv in enumerate(h_pow):
                    if idx <= order:
                        coeffs[idx] += deriv_over_fact * hv
                h_pow = _poly_mul(h_pow, h, order)
            coeffs[0] = transform_T(lam_eff, 0.0)
            report_tail = tail + comp_tail

    negatives = [c for c in coeffs[1:] if c < -report_tail - 1e-15]
    return TaylorReport(
        coeffs=tuple(coeffs),
        coeff0=coeffs[0],
        all_nonneg_from_1=not negatives,
        tail_bound=report_tail,
    )


# ---------------------------------------------------------------------------
# Turning bands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TurningBandsSpec:
    """Dimension pair for the turning bands operator: R^d down to R^k."""

    k: int
    d: int

    def __post_init__(self) -> None:
        if not (isinstance(self.k, int) and isinstance(self.d, int)):
            raise DomainError("k and d must be integers")
        if not 1 <= self.k <= self.d:
            raise DomainError(
                f"need 1 <= k <= d, got k={self.k!r}, d={self.d!r}")


def turning_bands(chi: RadialFunction, spec: TurningBandsSpec, r: float,
                  *, tol: float = 1e-10) -> float:
    """``tb_k^d(chi)(r) = E[chi(r sqrt B)]``, B ~ Beta(k/2, (d-k)/2)."""
    rf = float(r)
    if rf < 0:
        raise DomainError(f"r must be >= 0, got {r!r}")
    if spec.k == spec.d or rf == 0.0:
        return float(chi(rf))
    a_exp = spec.k / 2.0 - 1.0
    b_exp = (spec.d - spec.k) / 2.0 - 1.0
    norm = math.exp(math.lgamma(spec.d / 2.0) - math.lgamma(spec.k / 2.0)
                    - math.lgamma((spec.d - spec.k) / 2.0))
    pts = sorted({(k_ / rf) ** 2 for k_ in chi.kinks if 0.0 < (k_ / rf) ** 2 < 1.0})

    def integrand(b: float) -> float:
        if b <= 0.0 or b >= 1.0:
            return 0.0
        return float(chi(rf * math.sqrt(b))) * b**a_exp * (1.0 - b) ** b_exp

    res = quadrature(integrand, 0.0, 1.0, tol=tol,
                     singular_exponent_a=min(a_exp, 0.0),
                     singular_exponent_b=min(b_exp, 0.0),
                     points=pts)
    return norm * res.value


def turning_bands_mc(chi: RadialFunction, spec: TurningBandsSpec, r: float,
                     *, n_samples: int = 100_000, seed: int = 0
                     ) -> SpecialFnResult:
    """Monte Carlo turning bands over random orthonormal k-frames.

    Samples frames as the QR orthonormalization of d x k standard Gaussian
    matrices and averages ``chi(|A^T t|)`` for a fixed probe t with
    ``|t| = r``.  This is the direct (definition-level) evaluation used to
    validate the Beta-mixture reduction; the error field is the standard
    error of the mean.
    """
    rf = float(r)
    if rf < 0:
        raise DomainError(f"r must be >= 0, got {r!r}")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((n_samples, spec.d, spec.k))
    q, _ = np.linalg.qr(gauss)
    # |A^T e_1|^2 is the squared norm of the first row of the frame.
    b = np.sum(q[:, 0, :] ** 2, axis=1)
    vals = chi(rf * np.sqrt(b))
    se = float(np.std(vals, ddof=1)) / math.sqrt(n_samples)
    return SpecialFnResult(float(np.mean(vals)), se)


# ---------------------------------------------------------------------------
# The tent image phi_d and the product construction chi_d
# ---------------------------------------------------------------------------


def phi_d(t: float, d: int) -> float:
    """``tb_1^d`` of the tent TCF: linear with slope beta_d on [0, 1].

    Computed through the explicit one-dimensional integral
    ``c_d int_0^{min(1, 1/t)} (1 - t w) (1 - w^2)^{(d-3)/2} dw`` for d >= 2
    (the d = 1 case is the tent itself).
    """
    tf = float(t)
    if tf < 0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d!r}")
    if d == 1:
        return max(0.0, 1.0 - tf)
    if tf == 0.0:
        return 1.0
    c_d = 2.0 * math.exp(math.lgamma(d / 2.0) - math.lgamma((d - 1) / 2.0)) \
        / math.sqrt(math.pi)
    upper = min(1.0, 1.0 / tf)
    expo = (d - 3) / 2.0

    def integrand(w: float) -> float:
        base = (1.0 - w) * (1.0 + w)
        return (1.0 - tf * w) * base**expo if base > 0.0 else 0.0

    sing_b = min(expo, 0.0) if upper == 1.0 else 0.0
    res = quadrature(integrand, 0.0, upper, tol=1e-12,
                     singular_exponent_b=sing_b)
    return c_d * res.value


def phi_d_neg_deriv_sqrt(t: float, d: int) -> float:
    """``-phi_d'(sqrt t)``: beta_d for t <= 1, else
    ``beta_d (1 - (1 - 1/t)^{(d-1)/2})``."""
    tf = float(t)
    if tf <= 0:
        raise DomainError(f"t must be > 0, got {t!r}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d!r}")
    b = beta_d(d)
    if tf <= 1.0:
        return b
    return b * (1.0 - (1.0 - 1.0 / tf) ** ((d - 1) / 2.0))


def chi_d(t: float, d: int) -> float:
    """The compactly supported TCF ``phi_d(2t) h_d(t)``."""
    tf = float(t)
    if tf >= 1.0:
        return 0.0
    return phi_d(2.0 * tf, d) * h_d(tf, d)


def chi_d_neg_deriv_sqrt(t: float, d: int = 3) -> float:
    """``-chi_d'(sqrt t)`` in closed form, for t in (0, 1).

    Expanded by the product rule into
    ``2 (-phi_d'(2 sqrt t)) h_d(sqrt t) + phi_d(2 sqrt t) (-h_d'(sqrt t))``
    with ``-h_d'(s) = d beta_d (1 - s^2)^{(d-1)/2}``.  The function has a
    kink at t = 1/4 (where phi_d(2s) changes branch); evaluation exactly
    there raises KinkError -- approach from either side for the one-sided
    slopes.
    """
    tf = float(t)
    if not 0.0 < tf < 1.0:
        raise DomainError(f"t must lie in (0, 1), got {t!r}")
    if tf == 0.25:
        raise KinkError("-chi_d'(sqrt t) has a kink at t = 1/4",
                        x=tf, kink=0.25)
    # -phi_d'(r) at radius r = 2 sqrt(t): the sqrt-argument form takes 4t.
    term1 = 2.0 * phi_d_neg_deriv_sqrt(4.0 * tf, d) * h_d(math.sqrt(tf), d)
    neg_h_deriv = d * beta_d(d) * (1.0 - tf) ** ((d - 1) / 2.0)
    term2 = phi_d(2.0 * math.sqrt(tf), d) * neg_h_deriv
    return term1 + term2


def phi_d_radial(d: int) -> RadialFunction:
    """``phi_d`` packaged with its analytic derivative.

    The derivative of ``-phi_d'(sqrt t)`` jumps at t = 1 for every d >= 2,
    so the radius r = 1 is declared as a kink; d = 1 is the tent itself.
    """
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d!r}")
    if d == 1:
        return tent()
    return radial_from_callable(
        f"phi_{d}", lambda r: phi_d(r, d),
        deriv1=lambda r: -phi_d_neg_deriv_sqrt(r * r, d),
        kinks=(1.0,),
        family="tent_turning_bands",
        param=float(d),
        completely_monotone=False,
    )


def chi_d_radial(d: int = 3) -> RadialFunction:
    """``chi_d`` packaged with its analytic derivative.

    Kinks sit at r = 1/2 (branch change of phi_d(2r)) and at the support
    boundary r = 1.
    """
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d!r}")

    def deriv1(r: float) -> float:
        if r >= 1.0:
            return 0.0
        return -chi_d_neg_deriv_sqrt(r * r, d)

    return radial_from_callable(
        f"chi_{d}", lambda r: chi_d(r, d),
        deriv1=deriv1,
        kinks=(0.5, 1.0),
        support_bound=1.0,
        family="tent_turning_bands_product",
        param=float(d),
        completely_monotone=False,
    )


# ---------------------------------------------------------------------------
# Multiplication by an overlap factor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallOverlap:
    """Overlap factor of a random ball with radius law R: E[h_d(t/(2R))]."""

    dim: int
    radius: Distribution1D


@dataclass(frozen=True)
class EnsembleOverlap:
    """Overlap factor of a random {0,1} radial profile, by Monte Carlo.

    ``sample(rng)`` returns an indicator-type RadialFunction B; the factor
    at lag t is ``E[int B(z) B(z-t) dz / int B(z) dz]``.
    """

    dim: int
    sample: Callable[[np.random.Generator], RadialFunction]
    n_samples: int = 200


def overlap_factor(model, t: float, *, tol: float = 1e-9,
                   seed: int = 0) -> SpecialFnResult:
    """The autocorrelation-of-support factor at lag t, in [0, 1]."""
    tf = float(t)
    if tf < 0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    if isinstance(model, BallOverlap):
        return tcf_result(M3bModel(dim=model.dim, radius=model.radius), tf,
                          tol=tol)
    if isinstance(model, EnsembleOverlap):
        rng = np.random.default_rng(seed)

        def draw() -> tuple[float, float]:
            profile = model.sample(rng)
            num = overlap_integral(profile, model.dim, tf, tol=max(tol, 1e-8))
            den = overlap_integral(profile, model.dim, 0.0, tol=max(tol, 1e-8))
            return (num.value / den.value,
                    (num.abs_error_estimate + den.abs_error_estimate)
                    / den.value)

        return _monte_carlo(model.n_samples, draw)
    raise DomainError(f"unknown overlap model {type(model).__name__}")


def multiply_overlap(chi: RadialFunction, model, t: float, *,
                     tol: float = 1e-9, seed: int = 0) -> SpecialFnResult:
    """``overlap_factor(t) * chi(t)`` -- a TCF whenever chi is one."""
    factor = overlap_factor(model, t, tol=tol, seed=seed)
    c = float(chi(float(t)))
    return SpecialFnResult(factor.value * c, factor.abs_error_estimate * abs(c))


# ---------------------------------------------------------------------------
# Convexity and curvature diagnostics
# ---------------------------------------------------------------------------


def gneiting_c(t: float, d: int, *, tol: float = 1e-10) -> float:
    """``c(t) = int_0^t sqrt(v/(t-v)) (-phi_d'(1/sqrt v)) dv``.

    Convexity of c (after dividing by beta_d) is necessary for the linear
    TCF with slope beta_d to extend to a monotone-shape storm process in
    dimension d >= 2; this function lets tests probe where convexity fails.
    """
    tf = float(t)
    if tf < 0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    if d < 2:
        raise DomainError(f"d must be >= 2, got {d!r}")
    if tf == 0.0:
        return 0.0

    # Substituted to a fixed interval: v = t w, with the inverse-square-root
    # singularity at w = 1 and the branch switch of -phi_d' at w = 1/t.
    # The derivative is taken at radius 1/sqrt(v), i.e. sqrt-argument 1/(t w).
    def integrand(w: float) -> float:
        if w <= 0.0 or w >= 1.0:
            return 0.0
        return math.sqrt(w / (1.0 - w)) * phi_d_neg_deriv_sqrt(1.0 / (tf * w), d)

    pts = [1.0 / tf] if tf > 1.0 else []
    res = quadrature(integrand, 0.0, 1.0, tol=tol, singular_exponent_b=-0.5,
                     points=pts)
    return tf * res.value


def c_second_deriv_at_1(d: int) -> float:
    """Closed form of c''(1): ``-beta_d (d-1) 3 sqrt(pi) Gamma(d/2-2) /
    (16 Gamma((d+1)/2))``, valid for d >= 6 (negative: c is concave at 1)."""
    if d < 6:
        raise DomainError(f"closed form requires d >= 6, got {d!r}")
    return -beta_d(d) * (d - 1) * 3.0 * math.sqrt(math.pi) * math.exp(
        math.lgamma(d / 2.0 - 2.0) - math.lgamma((d + 1) / 2.0)) / 16.0


def midpoint_convexity_violation(f: Callable[[float], float],
                                 grid: Sequence[float]
                                 ) -> tuple[float, float]:
    """Largest violation of the midpoint convexity inequality on a grid.

    For consecutive grid points a < b checks
    ``f((a+b)/2) <= (f(a)+f(b))/2``; returns (violation, midpoint) for the
    worst pair, where violation > 0 means f is not convex there.
    """
    xs = sorted(float(g) for g in grid)
    if len(xs) < 2:
        raise DomainError("grid needs at least two points")
    worst, where = -math.inf, xs[0]
    for a, b in zip(xs, xs[1:]):
        mid = 0.5 * (a + b)
        gap = f(mid) - 0.5 * (f(a) + f(b))
        if gap > worst:
            worst, where = gap, mid
    return worst, where


def implied_br_variogram(r: float) -> float:
    """The variogram exponent a Brown-Resnick TCF would need in order to
    equal ``0.25 erfc(sqrt r) + 0.75 erfc(5 sqrt r)``:

        psi(r) = erfc_inv(0.25 erfc(sqrt r) + 0.75 erfc(5 sqrt r))^2.

    psi is increasing from psi(0) = 0; its second derivative has a local
    minimum, which obstructs psi from having a completely monotone
    derivative -- the mixture TCF is not of Brown-Resnick type even though
    both components are.
    """
    rf = float(r)
    if rf < 0:
        raise DomainError(f"r must be >= 0, got {r!r}")
    if rf == 0.0:
        return 0.0
    s = math.sqrt(rf)
    mix = 0.25 * float(erfc(s)) + 0.75 * float(erfc(5.0 * s))
    return float(erfc_inv(mix)) ** 2


def implied_br_curvature_min(lo: float = 1e-4, hi: float = 10.0, *,
                             n: int = 2000) -> tuple[float, float]:
    """Locate a local minimum of psi'' on [lo, hi].

    Scans a log grid of n points for a discrete local minimum of the
    numeric second derivative, then refines by golden-section.  Returns
    (location, psi''(location)); raises if no interior minimum exists.
    """
    grid = np.geomspace(lo, hi, n)

    def psi2(x: float) -> float:
        # Relative step keeps the whole Ridders ladder inside r > 0.
        return num_derivative(implied_br_variogram, float(x), 2,
                              h=float(x) / 20.0, levels=4).value

    vals = np.array([psi2(x) for x in grid])
    interior = np.flatnonzero(
        (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])) + 1
    if interior.size == 0:
        raise TailcorrError(
            f"no local minimum of psi'' found on [{lo}, {hi}]")
    i = int(interior[np.argmin(vals[interior])])
    a, b = float(grid[i - 1]), float(grid[i + 1])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d_ = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = psi2(c), psi2(d_)
    for _ in range(60):
        if b - a < 1e-10 * max(1.0, abs(a)):
            break
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - invphi * (b - a)
            fc = psi2(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + invphi * (b - a)
            fd = psi2(d_)
    x_min = 0.5 * (a + b)
    return x_min, psi2(x_min)


# ---------------------------------------------------------------------------
# The completely monotone building block 1 - erf(sqrt x)^2
# ---------------------------------------------------------------------------


def erf_square_complement(x: float) -> float:
    """``1 - erf(sqrt x)^2``, completely monotone on [0, inf)."""
    xf = float(x)
    if xf < 0:
        raise DomainError(f"x must be >= 0, got {x!r}")
    e = math.erf(math.sqrt(xf))
    return 1.0 - e * e


def erf_square_complement_deriv1(x: float) -> float:
    """First derivative: ``-(2/sqrt pi) (erf(sqrt x)/sqrt x) e^{-x}``,
    with the x -> 0 limit -4/pi."""
    xf = float(x)
    if xf < 0:
        raise DomainError(f"x must be >= 0, got {x!r}")
    if xf == 0.0:
        return -4.0 / math.pi
    s = math.sqrt(xf)
    return -(2.0 / math.sqrt(math.pi)) * (math.erf(s) / s) * math.exp(-xf)


def erf_square_complement_radial() -> RadialFunction:
    """The same function packaged with its derivative for membership tests."""
    return radial_from_callable(
        "erf_square_complement", erf_square_complement,
        deriv1=erf_square_complement_deriv1, completely_monotone=True)


__all__.append("erf_square_complement_radial")
