"""Tail correlation functions (TCFs) of stationary max-stable process classes.

The TCF of a pair (X_o, X_t) from a stationary max-stable process with unit
Fréchet margins is chi(t) = lim_{tau -> inf} P(X_t >= tau | X_o >= tau).
Each process class admits a closed form or a one-dimensional integral:

===========  ==================================================================
class        chi(t)
===========  ==================================================================
M3r / M2r    int_{R^d} min(f(|z|), f(|z - t|)) dz   (radial storm shape f)
M3b          E_R[ h_d(t / (2R)) ]                   (random ball radius R)
MPS          int_0^inf e^{-c_d t s} dF(s),  c_d = 2 kappa_{d-1} / (d kappa_d)
BR           erfc( sqrt(gamma(t) / 8) )             (variogram gamma)
VBR          int_0^inf erfc( s sqrt(gamma(t)/8) ) dG(s)
EG           1 - sqrt((1 - rho(t)) / 2)             (correlation rho)
EBG          arcsin(rho(t)) / pi + 1/2
===========  ==================================================================

plus parametric families with sharp validity bounds and a catalog of
erfc scale mixtures int_0^inf erfc(s t) dG(s) with known closed forms.

The kernel h_d is the normalized self-convolution of a d-dimensional unit
ball indicator: the volume fraction in which two unit-diameter balls at
distance 2t overlap.  Closed forms are used for d <= 5; quadrature of
h_d(t) = d beta_d int_t^1 (1 - v^2)^{(d-1)/2} dv beyond.

The minimum-overlap integral for radial non-increasing shapes f reduces to a
single radial integral: the set where f(|z|) <= f(|z-t|) is the half-space
z . t/|t| >= |t|/2, so by symmetry

    chi(t) = 2 int_{t/2}^inf f(u) * cap_d(u, t/(2u)) du,

where cap_d(u, c) is the surface measure of the spherical cap
{|z| = u, z_1 > c u}; an incomplete Beta function in closed form.

Each model class is declared in one place, its dataclass: the TCF is its
``_tcf`` method, and a class that can be simulated also carries
``_profile_sampler``, the size-biased storm profile law used by
:func:`tailcorr.simulate.simulate`.  The command line reads a class's
config keys from its required dataclass fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy import special as _special

from .distributions import Distribution1D, from_pdf
from .errors import DomainError, ModelError, SimulationError
from .numerics import (
    SpecialFnResult,
    beta_d,
    erfc,
    kappa_d,
    quadrature,
)
from .radial import Correlation, RadialFunction, Variogram, whittle_matern

__all__ = [
    "h_d",
    "laplace_factor",
    "ShapeEnsemble",
    "M3rModel",
    "M2rModel",
    "M3bModel",
    "MPSModel",
    "BRModel",
    "VBRModel",
    "EGModel",
    "EBGModel",
    "ParametricModel",
    "ErfcMixtureModel",
    "TcfModel",
    "tcf",
    "tcf_result",
    "overlap_integral",
    "parametric_tcf",
    "parametric_bounds",
    "classify_parameters",
    "ParamInterval",
    "ParametricBounds",
    "erfc_mixture",
    "PARAMETRIC_FAMILIES",
]


# ---------------------------------------------------------------------------
# The ball overlap kernel h_d
# ---------------------------------------------------------------------------


def _h_d_scalar(t: float, d: int) -> float:
    if t < 0:
        raise DomainError(f"h_d requires t >= 0, got {t!r}")
    if t >= 1.0:
        return 0.0
    if d == 1:
        return 1.0 - t
    if d == 2:
        return (2.0 / math.pi) * (math.acos(t) - t * math.sqrt(1.0 - t * t))
    if d == 3:
        return 1.0 - 1.5 * t + 0.5 * t**3
    if d == 4:
        s = math.sqrt(1.0 - t * t)
        return (1.0 - (2.0 / math.pi) * (math.asin(t) + t * s)
                - (4.0 / (3.0 * math.pi)) * t * s**3)
    if d == 5:
        return 1.0 - 1.875 * t + 1.25 * t**3 - 0.375 * t**5
    expo = (d - 1) / 2.0
    res = quadrature(lambda v: (1.0 - v * v) ** expo, t, 1.0, tol=1e-12)
    return d * beta_d(d) * res.value


def h_d(t, d: int):
    """Normalized overlap of two d-dimensional balls of diameter 1 at distance t.

    h_d(0) = 1, h_d(t) = 0 for t >= 1; closed form for d <= 5.
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise DomainError(f"dimension must be a positive integer, got {d!r}")
    arr = np.asarray(t, dtype=float)
    if arr.ndim == 0:
        return _h_d_scalar(float(arr), d)
    return np.array([_h_d_scalar(float(v), d) for v in arr.ravel()]
                    ).reshape(arr.shape)


def laplace_factor(d: int) -> float:
    """The distance scaling 2 kappa_{d-1} / (d kappa_d) of the MPS Laplace
    transform (1 in d=1, 2/pi in d=2, 1/2 in d=3)."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise DomainError(f"dimension must be a positive integer, got {d!r}")
    return 2.0 * kappa_d(d - 1) / (d * kappa_d(d))


# ---------------------------------------------------------------------------
# Overlap integral for radial non-increasing shapes
# ---------------------------------------------------------------------------


def _cap_constant(d: int) -> float:
    # Surface measure of the unit half-sphere in R^d divided by the
    # regularized incomplete Beta normalization: cap(u, c) =
    # u^{d-1} * C_d * I_{1-c^2}((d-1)/2, 1/2).
    return (0.5 * (d - 1) * kappa_d(d - 1)
            * float(_special.beta((d - 1) / 2.0, 0.5)))


def overlap_integral(f: RadialFunction, d: int, t: float, *,
                     tol: float = 1e-10) -> SpecialFnResult:
    """int_{R^d} min(f(|z|), f(|z - t e_1|)) dz for radial non-increasing f.

    At t = 0 this is the full radial integral of f over R^d (the model
    normalization).
    """
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    half = 0.5 * t
    upper = f.support_bound if f.support_bound is not None else math.inf
    if half >= upper:
        return SpecialFnResult(0.0, 0.0)
    pts = [k for k in f.kinks if half < k < upper]

    if d == 1:
        integrand = f.func
        sing = f.zero_exponent if t == 0.0 else 0.0
    else:
        cap_const = _cap_constant(d)
        a_beta, b_beta = (d - 1) / 2.0, 0.5

        def integrand(u: float) -> float:
            c = half / u
            frac = float(_special.betainc(a_beta, b_beta, 1.0 - c * c))
            return f.func(u) * u ** (d - 1) * cap_const * frac

        sing = f.zero_exponent + (d - 1) if t == 0.0 else 0.0
    sing = min(0.0, sing)
    if sing <= -1.0:
        raise ModelError(
            f"shape {f.name!r} is not integrable over R^{d} "
            f"(radial integrand exponent {sing:.3g} at 0)")
    res = quadrature(integrand, half, upper, tol=tol,
                     singular_exponent_a=sing, points=pts)
    return SpecialFnResult(2.0 * res.value, 2.0 * res.abs_error_estimate)


def _monte_carlo(n: int, draw: Callable[[], tuple[float, float]],
                 ) -> SpecialFnResult:
    """Mean of ``n`` draws of (value, error estimate).

    The reported error is the standard error of the mean (the single error
    estimate when ``n`` is 1) plus the mean of the per-draw estimates.
    """
    vals = np.empty(n)
    errs = np.empty(n)
    for i in range(n):
        vals[i], errs[i] = draw()
    se = (float(np.std(vals, ddof=1)) / math.sqrt(n) if n > 1
          else float(errs[0]))
    return SpecialFnResult(float(np.mean(vals)), se + float(np.mean(errs)))


# ---------------------------------------------------------------------------
# Sampling helpers for the size-biased profile samplers
# ---------------------------------------------------------------------------

#: Site cap for the dense-covariance Gaussian classes (BR/VBR/EG/EBG).
_GAUSSIAN_SITE_CAP = 2_000

#: ``draw(k, rng) -> ratios``: a storm profile divided by its value at
#: site ``k``, drawn from the profile law size-biased by that value.
_ProfileDraw = Callable[[int, np.random.Generator], np.ndarray]


def _law_sampler(dist: Distribution1D) -> Callable[[np.random.Generator], float]:
    """One-at-a-time sampler for a distribution, fast in the storm loop.

    Laws with a native sampler, an analytic quantile, or purely atomic
    support sample exactly; continuous laws given only by a density fall
    back to a dense tabulated inverse cdf built once (about 1e-6 relative
    quantile error, far below every estimator tolerance).
    """
    if dist.sampler is not None or dist.quantile is not None:
        def draw(rng: np.random.Generator) -> float:
            return float(dist.sample(rng, 1)[0])
        return draw
    if dist.is_purely_atomic:
        points = np.array([a for a, _ in dist.atoms])
        weights = np.array([w for _, w in dist.atoms])
        weights = weights / weights.sum()
        def draw_atomic(rng: np.random.Generator) -> float:
            return float(rng.choice(points, p=weights))
        return draw_atomic
    if dist.pdf is None:
        raise SimulationError(
            f"law {dist.name!r} has neither sampler, quantile, atoms nor pdf")
    return _tabulated_inverse_cdf(dist)


def _tabulated_inverse_cdf(dist: Distribution1D, n_nodes: int = 1024,
                           tail_mass: float = 1e-10,
                           ) -> Callable[[np.random.Generator], float]:
    lo, hi = dist.support
    if math.isinf(hi):
        # The density may be unnormalized (it is renormalized below), so
        # bracket the support where doubling it stops adding relative mass.
        hi = max(2.0 * max(lo, 0.0), lo + 1.0)
        mass = quadrature(dist.pdf, lo, hi, 1e-11,
                          singular_exponent_a=dist.pdf_singular_exponent,
                          points=[p for p in dist.pdf_points if lo < p < hi],
                          ).value
        for _ in range(200):
            nxt = lo + 2.0 * (hi - lo)
            gain = quadrature(dist.pdf, hi, nxt, 1e-11).value
            if mass > 0 and gain <= tail_mass * mass:
                break
            hi, mass = nxt, mass + gain
        else:
            raise SimulationError(
                f"law {dist.name!r}: upper tail does not vanish numerically")
    atom_points = np.array([a for a, _ in dist.atoms]) if dist.atoms else None
    atom_weights = (np.array([w for _, w in dist.atoms])
                    if dist.atoms else None)
    atom_mass = float(atom_weights.sum()) if atom_weights is not None else 0.0

    # Nodes concentrate geometrically toward the lower endpoint, where the
    # density may carry a declared algebraic singularity.
    x = lo + (hi - lo) * np.concatenate(
        [[0.0], np.geomspace(1e-10, 1.0, n_nodes)])
    hints = set(p for p in dist.pdf_points if lo < p < hi)
    if hints:
        x = np.unique(np.concatenate([x, sorted(hints)]))
    seg = np.empty(len(x) - 1)
    for i in range(len(seg)):
        exponent = dist.pdf_singular_exponent if i == 0 else 0.0
        seg[i] = quadrature(dist.pdf, x[i], x[i + 1], 1e-11,
                            singular_exponent_a=exponent).value
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total <= 0:
        raise SimulationError(f"law {dist.name!r}: density integrates to zero")
    cum /= total

    def draw(rng: np.random.Generator) -> float:
        if atom_mass > 0 and rng.uniform() < atom_mass:
            return float(rng.choice(atom_points, p=atom_weights / atom_mass))
        return float(np.interp(rng.uniform(), cum, x))

    return draw


def _radial_offset_sampler(shape: RadialFunction, dim: int,
                           ) -> Callable[[np.random.Generator], float]:
    """Sampler for the storm-center offset radius of a unit-mass shape.

    The center of a storm conditioned to contribute at a site lies at
    radial offset ``rho`` with density proportional to
    ``rho^(dim-1) * shape(rho)``; the normalizer is the shape's unit
    integral over R^dim.
    """
    exponent = (dim - 1) + shape.zero_exponent
    bound = shape.support_bound if shape.support_bound is not None else math.inf
    halo = Distribution1D(
        name=f"offset[{shape.name}]",
        pdf=lambda rho: float(rho ** (dim - 1) * shape.func(rho)),
        support=(0.0, bound),
        pdf_singular_exponent=exponent,
        pdf_points=shape.kinks,
    )
    return _tabulated_inverse_cdf(halo)


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    n = float(np.linalg.norm(v))
    while n == 0.0:  # pragma: no cover - probability zero
        v = rng.standard_normal(dim)
        n = float(np.linalg.norm(v))
    return v / n


def _gaussian_factor(cov: np.ndarray) -> np.ndarray:
    """Factor ``A`` with ``A A^T = cov`` via symmetric eigendecomposition.

    Tolerates the tiny negative eigenvalues of valid but singular inputs
    (clipped to zero); genuinely indefinite matrices raise with the
    minimum eigenvalue attached.
    """
    sym = 0.5 * (cov + cov.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    floor = -1e-8 * max(1.0, float(eigvals[-1]))
    if eigvals[0] < floor:
        raise SimulationError(
            "covariance is not positive semidefinite",
            min_eigenvalue=float(eigvals[0]))
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _embed_sites(sites: np.ndarray, model_dim: int, model_name: str,
                 ) -> np.ndarray:
    m, g = sites.shape
    if model_dim < g:
        raise DomainError(
            f"{model_name} lives in dimension {model_dim} and cannot host a "
            f"{g}-dimensional grid")
    out = np.zeros((m, model_dim))
    out[:, :g] = sites
    return out


def _pairwise_distances(sites: np.ndarray) -> np.ndarray:
    diff = sites[:, None, :] - sites[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _gaussian_distances(model: TcfModel, sites: np.ndarray) -> np.ndarray:
    """Pairwise site distances for the dense Gaussian factorization of a
    BR, VBR, EG or EBG model, after the site cap and dimension checks."""
    if sites.shape[0] > _GAUSSIAN_SITE_CAP:
        raise DomainError(
            f"Gaussian-class grids are capped at {_GAUSSIAN_SITE_CAP} "
            f"sites for dense factorization, got {sites.shape[0]}")
    name = f"a {type(model).__name__.removesuffix('Model')} model"
    return _pairwise_distances(_embed_sites(sites, model.dim, name))


def _variogram_covariance(model: BRModel | VBRModel, sites: np.ndarray):
    """Covariance of the driving Gaussian process of a Brown-Resnick class
    anchored at the first site, its factor, and half its variances."""
    gamma = model.variogram(_gaussian_distances(model, sites))
    sig2 = gamma[0]  # variance anchored at the first site
    cov = 0.5 * (sig2[:, None] + sig2[None, :] - gamma)
    return cov, _gaussian_factor(cov), 0.5 * sig2


def _correlation_factor(model: EGModel | EBGModel, sites: np.ndarray):
    """Correlation matrix of an extremal Gaussian class and its factor."""
    corr = model.correlation(_gaussian_distances(model, sites))
    np.fill_diagonal(corr, 1.0)
    return corr, _gaussian_factor(corr)


# ---------------------------------------------------------------------------
# Model classes
# ---------------------------------------------------------------------------


def _check_dim(dim: int) -> None:
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ModelError(f"dim must be a positive integer, got {dim!r}")


def _check_mixing(dist: Distribution1D, what: str) -> None:
    if dist.support[0] < 0:
        raise ModelError(
            f"{what} must be supported on (0, inf), got support {dist.support!r}")
    # Reject a point mass at the origin; an integrable density singularity
    # at 0 is fine (the cdf is still continuous with cdf(0) = 0).
    if any(x <= 0.0 for x, _ in dist.atoms):
        raise ModelError(f"{what} has an atom at a non-positive location")


@dataclass(frozen=True)
class ShapeEnsemble:
    """A law over radial storm shapes, sampled for Monte Carlo evaluation.

    ``sample(rng)`` returns a RadialFunction; the ensemble must satisfy the
    expectation normalization E[int_{R^d} f] = 1 (not checked per draw).
    """

    name: str
    sample: Callable[[np.random.Generator], RadialFunction]


@dataclass(frozen=True)
class M3rModel:
    """Mixed moving maxima with random radial non-increasing shapes."""

    dim: int
    ensemble: ShapeEnsemble
    n_samples: int = 200

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        if self.n_samples < 1:
            raise ModelError(f"n_samples must be >= 1, got {self.n_samples!r}")

    def _tcf(self, t: float, tol: float, seed: int) -> SpecialFnResult:
        rng = np.random.default_rng(seed)

        def draw() -> tuple[float, float]:
            res = overlap_integral(self.ensemble.sample(rng), self.dim, t,
                                   tol=max(tol, 1e-8))
            return res.value, res.abs_error_estimate

        return _monte_carlo(self.n_samples, draw)


@dataclass(frozen=True)
class M2rModel:
    """Moving maxima with one deterministic radial non-increasing shape.

    The shape must integrate to 1 over R^d; this is checked at construction
    by radial quadrature (tolerance ``normalization_tol``).
    """

    dim: int
    shape: RadialFunction
    normalization_tol: float = 1e-6

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        grid = np.logspace(-3, 2, 40)
        vals = self.shape(grid)
        if np.any(vals < -1e-12):
            raise ModelError(f"shape {self.shape.name!r} takes negative values")
        scale = np.max(np.abs(vals)) + 1e-300
        if np.any(vals[1:] > vals[:-1] + 1e-9 * scale):
            raise ModelError(f"shape {self.shape.name!r} is not non-increasing")
        total = overlap_integral(self.shape, self.dim, 0.0, tol=1e-9)
        if abs(total.value - 1.0) > self.normalization_tol:
            raise ModelError(
                f"shape {self.shape.name!r} integrates to {total.value!r} over "
                f"R^{self.dim}, expected 1 within {self.normalization_tol:g}")

    def _tcf(self, t: float, tol: float, seed: int) -> SpecialFnResult:
        return overlap_integral(self.shape, self.dim, t, tol=tol)

    def _profile_sampler(self, sites: np.ndarray) -> _ProfileDraw:
        # Storm center at radial offset rho with density proportional to
        # rho^(d-1) f(rho), uniform direction; profile ratio f(.)/f(rho).
        pts = _embed_sites(sites, self.dim, "an M2r model")
        shape, dim = self.shape, self.dim
        offset = _radial_offset_sampler(shape, dim)

        def draw_m2r(k: int, rng: np.random.Generator) -> np.ndarray:
            rho = offset(rng)
            center = pts[k] + rho * _unit_vector(rng, dim)
            dists = np.linalg.norm(pts - center, axis=1)
            return shape(dists) / shape.func(rho)

        return draw_m2r


@dataclass(frozen=True)
class M3bModel:
    """Mixed moving maxima with ball indicator shapes of random radius R."""

    dim: int
    radius: Distribution1D

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        _check_mixing(self.radius, "radius law")

    def _tcf(self, t: float, tol: float, seed: int) -> SpecialFnResult:
        if t == 0.0:
            return SpecialFnResult(1.0, 0.0)
        d = self.dim
        hint = [0.5 * t] if self.radius.support[0] < 0.5 * t else []
        return self.radius.expect(
            lambda r: _h_d_scalar(min(t / (2.0 * r), 1.0), d) if r > 0 else 0.0,
            tol=tol, points=hint)

    def _profile_sampler(self, sites: np.ndarray) -> _ProfileDraw:
        # Radius from the model law unchanged, center uniform in the ball
        # around the site; profile ratio is the covering indicator.
        pts = _embed_sites(sites, self.dim, "an M3b model")
        dim = self.dim
        radius = _law_sampler(self.radius)

        def draw_m3b(k: int, rng: np.random.Generator) -> np.ndarray:
            r = radius(rng)
            w = r * rng.uniform() ** (1.0 / dim)
            center = pts[k] + w * _unit_vector(rng, dim)
            return (np.linalg.norm(pts - center, axis=1) <= r).astype(float)

        return draw_m3b


@dataclass(frozen=True)
class MPSModel:
    """Mixed Poisson storm process; chi is the Laplace transform of the
    intensity mixing law F at distance scaled by laplace_factor(dim)."""

    dim: int
    mixing: Distribution1D

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        _check_mixing(self.mixing, "mixing law")

    def _tcf(self, t: float, tol: float, seed: int) -> SpecialFnResult:
        c = laplace_factor(self.dim) * t
        return self.mixing.expect(lambda s: math.exp(-c * s), tol=tol)

    def _profile_sampler(self, sites: np.ndarray) -> _ProfileDraw:
        # Intensity beta from the mixing law unchanged, cell length
        # Gamma(2,1)/beta (the size-biased exponential cell) covering the
        # site uniformly; profile ratio is the covering indicator.
        if self.dim != 1:
            raise DomainError(
                "Poisson-storm simulation is supported in dimension 1 only "
                f"(model has dim {self.dim})")
        if sites.shape[1] != 1:
            raise DomainError("a Poisson-storm model requires a 1-D grid")
        x = sites[:, 0]
        mixing = _law_sampler(self.mixing)

        def draw_mps(k: int, rng: np.random.Generator) -> np.ndarray:
            beta = mixing(rng)
            length = rng.gamma(2.0) / beta
            left = x[k] - rng.uniform(0.0, length)
            return ((x >= left) & (x <= left + length)).astype(float)

        return draw_mps


@dataclass(frozen=True)
class BRModel:
    """Brown-Resnick process with the given variogram."""

    dim: int
    variogram: Variogram

    def __post_init__(self) -> None:
        _check_dim(self.dim)

    def _tcf(self, t: float, tol: float, seed: int) -> SpecialFnResult:
        g = float(self.variogram(t))
        return SpecialFnResult(float(erfc(math.sqrt(g / 8.0))), 0.0)

    def _profile_sampler(self, sites: np.ndarray) -> _ProfileDraw:
        # V = exp(W - sigma^2/2); size-biasing is the exponential tilt, a
        # mean shift by the covariance column of the conditioning site.
        cov, factor, half = _variogram_covariance(self, sites)
        m = sites.shape[0]

        def draw_br(k: int, rng: np.random.Generator) -> np.ndarray:
            w = factor @ rng.standard_normal(m)
            log_ratio = (w - w[k]) + (cov[:, k] - cov[k, k]) \
                - (half - half[k])
            return np.exp(log_ratio)

        return draw_br


@dataclass(frozen=True)
class VBRModel:
    """Variance-mixed Brown-Resnick: Gaussian scale S ~ G applied to the
    driving process, chi(t) = int erfc(s sqrt(gamma(t)/8)) dG(s)."""

    dim: int
    variogram: Variogram
    scale_mixing: Distribution1D

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        _check_mixing(self.scale_mixing, "scale mixing law")

    def _tcf(self, t: float, tol: float, seed: int) -> SpecialFnResult:
        arg = math.sqrt(float(self.variogram(t)) / 8.0)
        return self.scale_mixing.expect(
            lambda s: float(erfc(s * arg)), tol=tol)

    def _profile_sampler(self, sites: np.ndarray) -> _ProfileDraw:
        # Scale S from the mixing law unchanged, mean shift S^2 times the
        # covariance column of the conditioning site.
        cov, factor, half = _variogram_covariance(self, sites)
        m = sites.shape[0]
        scale = _law_sampler(self.scale_mixing)

        def draw_vbr(k: int, rng: np.random.Generator) -> np.ndarray:
            s = scale(rng)
            w = factor @ rng.standard_normal(m)
            log_ratio = s * (w - w[k]) + s * s * (
                (cov[:, k] - cov[k, k]) - (half - half[k]))
            return np.exp(log_ratio)

        return draw_vbr


@dataclass(frozen=True)
class EGModel:
    """Extremal Gaussian process with correlation rho."""

    dim: int
    correlation: Correlation

    def __post_init__(self) -> None:
        _check_dim(self.dim)

    def _tcf(self, t: float, tol: float, seed: int) -> SpecialFnResult:
        rho = float(self.correlation(t))
        return SpecialFnResult(1.0 - math.sqrt(max(0.0, 1.0 - rho) / 2.0), 0.0)

    def _profile_sampler(self, sites: np.ndarray) -> _ProfileDraw:
        # The value at the site is Rayleigh, the rest follows by exact
        # Gaussian conditioning; profile ratio (Z)+ / z*.
        corr, factor = _correlation_factor(self, sites)
        m = sites.shape[0]

        def draw_eg(k: int, rng: np.random.Generator) -> np.ndarray:
            z_star = rng.rayleigh()
            y = factor @ rng.standard_normal(m)
            z = y + (z_star - y[k]) * corr[:, k]
            out = np.maximum(z, 0.0) / z_star
            out[k] = 1.0
            return out

        return draw_eg


@dataclass(frozen=True)
class EBGModel:
    """Extremal binary Gaussian process with correlation rho."""

    dim: int
    correlation: Correlation

    def __post_init__(self) -> None:
        _check_dim(self.dim)

    def _tcf(self, t: float, tol: float, seed: int) -> SpecialFnResult:
        rho = float(self.correlation(t))
        rho = min(1.0, max(-1.0, rho))
        return SpecialFnResult(math.asin(rho) / math.pi + 0.5, 0.0)

    def _profile_sampler(self, sites: np.ndarray) -> _ProfileDraw:
        # The value at the site is half-normal, the rest follows by exact
        # Gaussian conditioning; profile ratio is the positivity indicator.
        corr, factor = _correlation_factor(self, sites)
        m = sites.shape[0]

        def draw_ebg(k: int, rng: np.random.Generator) -> np.ndarray:
            z_star = abs(rng.standard_normal())
            y = factor @ rng.standard_normal(m)
            z = y + (z_star - y[k]) * corr[:, k]
            out = (z > 0.0).astype(float)
            out[k] = 1.0
            return out

        return draw_ebg


@dataclass(frozen=True)
class ParametricModel:
    """A member of one of the named parametric families of radial functions."""

    dim: int
    family: str
    nu: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        if self.family not in PARAMETRIC_FAMILIES:
            raise ModelError(
                f"unknown family {self.family!r}; choose from "
                f"{sorted(PARAMETRIC_FAMILIES)}")

    def _tcf(self, t: float, tol: float, seed: int) -> SpecialFnResult:
        return SpecialFnResult(
            parametric_tcf(self.family, self.nu, t, beta=self.beta), 0.0)


@dataclass(frozen=True)
class ErfcMixtureModel:
    """Scale mixture phi(t) = int_0^inf erfc(s t) dG(s).

    ``closed_form``, when present, is an independently derived analytic
    expression for phi; evaluation always goes through the mixture integral
    so the two routes stay comparable.
    """

    dim: int
    mixing: Distribution1D
    closed_form: Callable[[float], float] | None = None
    row: int | None = None
    param: float | None = None

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        _check_mixing(self.mixing, "mixing law")

    def _tcf(self, t: float, tol: float, seed: int) -> SpecialFnResult:
        return self.mixing.expect(lambda s: float(erfc(s * t)), tol=tol)


TcfModel = Union[
    M3rModel, M2rModel, M3bModel, MPSModel, BRModel, VBRModel,
    EGModel, EBGModel, ParametricModel, ErfcMixtureModel,
]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def tcf_result(model: TcfModel, t: float, *, tol: float = 1e-9,
               seed: int = 0) -> SpecialFnResult:
    """chi(t) for the given model, with an absolute error estimate.

    Closed-form classes report error 0; quadrature classes report the
    integration error; the Monte Carlo class (M3r) reports a standard error
    and takes the evaluation seed.
    """
    tf = float(t)
    if tf < 0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    if not hasattr(model, "_tcf"):
        raise ModelError(f"unknown model type {type(model).__name__}")
    return model._tcf(tf, tol, seed)


def tcf(model: TcfModel, t, *, tol: float = 1e-9, seed: int = 0):
    """chi(t); scalar in, float out; array in, ndarray out."""
    arr = np.asarray(t, dtype=float)
    if arr.ndim == 0:
        return tcf_result(model, float(arr), tol=tol, seed=seed).value
    return np.array([tcf_result(model, float(v), tol=tol, seed=seed).value
                     for v in arr.ravel()]).reshape(arr.shape)


# ---------------------------------------------------------------------------
# Parametric families with validity bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamInterval:
    """A parameter interval with open/closed endpoints."""

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = False

    def contains(self, v: float) -> bool:
        if self.lo_open:
            if v <= self.lo:
                return False
        elif v < self.lo:
            return False
        if self.hi_open:
            if v >= self.hi:
                return False
        elif v > self.hi:
            return False
        return True

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        hi = "inf" if math.isinf(self.hi) else f"{self.hi:g}"
        return f"{left}{self.lo:g}, {hi}{right}"


@dataclass(frozen=True)
class ParametricBounds:
    """Validity ranges of a family parameter nu.

    ``cf_range``: nu for which the function is a valid correlation function
    (positive definite in the stated dimension); ``tcf_range``: nu for which
    it is a valid tail correlation function.  ``tcf_sharp`` records whether
    the TCF bound is known to be sharp.
    """

    family: str
    dim: int | None
    cf_range: ParamInterval
    tcf_range: ParamInterval
    tcf_sharp: bool
    note: str = ""


PARAMETRIC_FAMILIES = (
    "powered_exponential",
    "whittle_matern",
    "cauchy",
    "powered_erfc",
    "truncated_power",
)


def parametric_tcf(family: str, nu: float, t, *, beta: float = 1.0):
    """Evaluate the named parametric family at parameter nu (and beta for
    the Cauchy family).  Scalar or array t."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    tv = np.atleast_1d(arr).astype(float)
    if np.any(tv < 0):
        raise DomainError(f"t must be >= 0, got {t!r}")
    if family == "powered_exponential":
        if not 0 < nu <= 2:
            raise DomainError(f"powered_exponential needs nu in (0,2], got {nu!r}")
        out = np.exp(-(tv**nu))
    elif family == "whittle_matern":
        if nu <= 0:
            raise DomainError(f"whittle_matern needs nu > 0, got {nu!r}")
        out = whittle_matern(nu)(tv)
    elif family == "cauchy":
        if not 0 < nu <= 2:
            raise DomainError(f"cauchy needs nu in (0,2], got {nu!r}")
        if beta <= 0:
            raise DomainError(f"cauchy needs beta > 0, got {beta!r}")
        out = (1.0 + tv**nu) ** (-beta)
    elif family == "powered_erfc":
        if nu <= 0:
            raise DomainError(f"powered_erfc needs nu > 0, got {nu!r}")
        out = np.asarray(erfc(tv**nu))
    elif family == "truncated_power":
        if nu <= 0:
            raise DomainError(f"truncated_power needs nu > 0, got {nu!r}")
        out = np.maximum(0.0, 1.0 - tv) ** nu
    else:
        raise DomainError(
            f"unknown family {family!r}; choose from {sorted(PARAMETRIC_FAMILIES)}")
    return float(out[0]) if scalar else out.reshape(arr.shape)


def parametric_bounds(family: str, d: int | None = None) -> ParametricBounds:
    """Sharp validity bounds of the family parameter.

    The truncated-power family is dimension-dependent and requires ``d``;
    its TCF bound nu >= floor(d/2) + 1 is sharp for odd d, while for even d
    the bound is valid but sharpness is unknown.
    """
    inf = math.inf
    if family == "powered_exponential":
        return ParametricBounds(family, None, ParamInterval(0, 2),
                                ParamInterval(0, 1), True)
    if family == "whittle_matern":
        return ParametricBounds(family, None, ParamInterval(0, inf, hi_open=True),
                                ParamInterval(0, 0.5), True)
    if family == "cauchy":
        return ParametricBounds(family, None, ParamInterval(0, 2),
                                ParamInterval(0, 1), True)
    if family == "powered_erfc":
        return ParametricBounds(family, None, ParamInterval(0, 1),
                                ParamInterval(0, 1), True)
    if family == "truncated_power":
        if d is None or not isinstance(d, (int, np.integer)) or d < 1:
            raise DomainError(
                "truncated_power bounds are dimension-dependent; pass d >= 1")
        cf_lo = (d + 1) / 2.0
        tcf_lo = float(d // 2 + 1)
        sharp = d % 2 == 1
        return ParametricBounds(
            family, int(d),
            ParamInterval(cf_lo, inf, lo_open=False, hi_open=True),
            ParamInterval(tcf_lo, inf, lo_open=False, hi_open=True),
            sharp,
            "" if sharp else "bound valid for even d, sharpness unknown")
    raise DomainError(
        f"unknown family {family!r}; choose from {sorted(PARAMETRIC_FAMILIES)}")


def classify_parameters(family: str, nu: float, d: int | None = None) -> str:
    """Classify nu: ``"invalid_as_cf"``, ``"valid_cf_not_tcf"``, or
    ``"valid_tcf"`` (meaning: within the sharp TCF bound)."""
    bounds = parametric_bounds(family, d)
    if not bounds.cf_range.contains(nu):
        return "invalid_as_cf"
    if not bounds.tcf_range.contains(nu):
        return "valid_cf_not_tcf"
    return "valid_tcf"


# ---------------------------------------------------------------------------
# erfc scale mixtures with closed forms
# ---------------------------------------------------------------------------


def _row2_density(nu: float) -> Callable[[float], float]:
    # Density of the mixing law whose erfc scale mixture is the
    # Whittle-Matern function with 0 < nu < 1/2:
    #   g(s) = C s^{-3} int_0^s x^{2 nu - 3} e^{-1/(4x^2)} (s^2-x^2)^{-nu-1/2} dx,
    #   C = sqrt(pi) / (Gamma(nu) Gamma(1/2 - nu)).
    # The substitution w = 1/(2 s y) (x = s y) turns the inner integral into
    #   (2s)^{2-2nu} int_{1/(2s)}^inf w^{1-2nu} e^{-w^2} (1-(2sw)^{-2})^{-nu-1/2} dw,
    # a Gaussian-tail integral with an algebraic singularity at the left
    # endpoint, which adaptive quadrature handles after desingularization.
    c_nu = math.sqrt(math.pi) / (math.gamma(nu) * math.gamma(0.5 - nu))
    expo = -nu - 0.5

    def g(s: float) -> float:
        if s <= 0.0:
            return 0.0
        w0 = 1.0 / (2.0 * s)

        # Integrate over the offset d = w - w0 so the singular factor
        # (1 - (w0/w)^2)^expo = (d (w + w0) / w^2)^expo is evaluated without
        # cancellation as d -> 0.
        def inner(d: float) -> float:
            w = w0 + d
            if d <= 0.0 or w * w > 745.0:
                return 0.0
            return w ** (1.0 - 2.0 * nu) * math.exp(-w * w) \
                * (d * (w + w0) / (w * w)) ** expo
        res = quadrature(inner, 0.0, math.inf, tol=1e-11,
                         singular_exponent_a=expo)
        return c_nu * s**-3 * (2.0 * s) ** (2.0 - 2.0 * nu) * res.value

    return g


def erfc_mixture(row: int, param: float, dim: int = 1) -> ErfcMixtureModel:
    """The catalog rows of erfc scale mixtures with closed-form values.

    ====  =================================  ======================================
    row   mixing law G (parameter a or nu)   closed form phi(t)
    ====  =================================  ======================================
    1     G(s) = exp(-1/(a s)^2)             exp(-2t/a)
    2     density via nested integral        Whittle-Matern, 0 < nu < 1/2
    3     G(s) = erf(a s)                    1 - (2/pi) arctan(t/a)
    4     G(s) = 1 - exp(-(a s)^2)           1 - (1 + (t/a)^{-2})^{-1/2}
    ====  =================================  ======================================
    """
    if row == 1:
        a = float(param)
        if a <= 0:
            raise DomainError(f"row 1 needs a > 0, got {param!r}")
        peak = math.sqrt(2.0 / 3.0) / a
        mixing = from_pdf(
            f"exp(-1/(({a:g})s)^2)",
            lambda s: math.exp(-1.0 / (a * s) ** 2) * 2.0 / (a * a * s**3)
            if s > 0 else 0.0,
            points=[peak])
        closed = lambda t: math.exp(-2.0 * t / a)  # noqa: E731
    elif row == 2:
        nu = float(param)
        if not 0.0 < nu < 0.5:
            raise DomainError(f"row 2 needs nu in (0, 1/2), got {param!r}")
        wm = whittle_matern(nu)
        mixing = from_pdf(f"wm_mixing(nu={nu:g})", _row2_density(nu))
        closed = wm.func
    elif row == 3:
        a = float(param)
        if a <= 0:
            raise DomainError(f"row 3 needs a > 0, got {param!r}")
        c = 2.0 * a / math.sqrt(math.pi)
        mixing = from_pdf(
            f"erf(({a:g})s)",
            lambda s: c * math.exp(-((a * s) ** 2)) if s > 0 else c)
        closed = lambda t: 1.0 - (2.0 / math.pi) * math.atan(t / a)  # noqa: E731
    elif row == 4:
        a = float(param)
        if a <= 0:
            raise DomainError(f"row 4 needs a > 0, got {param!r}")
        mixing = from_pdf(
            f"1-exp(-(({a:g})s)^2)",
            lambda s: 2.0 * a * a * s * math.exp(-((a * s) ** 2)) if s > 0 else 0.0)
        closed = lambda t: (1.0 - (1.0 + (t / a) ** -2) ** -0.5 if t > 0  # noqa: E731
                            else 1.0)
    else:
        raise DomainError(f"row must be 1..4, got {row!r}")
    return ErfcMixtureModel(dim=dim, mixing=mixing, closed_form=closed,
                            row=row, param=float(param))
