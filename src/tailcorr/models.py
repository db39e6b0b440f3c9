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
distance 2t overlap, h_d(t) = d beta_d int_t^1 (1 - v^2)^{(d-1)/2} dv: a
polynomial in t and sqrt(1 - t^2) for d <= 5, and the regularized
incomplete Beta function I_{1-t^2}((d+1)/2, 1/2) beyond.

The minimum-overlap integral for radial non-increasing shapes f reduces to a
single radial integral: the set where f(|z|) <= f(|z-t|) is the half-space
z . t/|t| >= |t|/2, so by symmetry

    chi(t) = 2 int_{t/2}^inf f(u) * cap_d(u, t/(2u)) du,

where cap_d(u, c) is the surface measure of the spherical cap
{|z| = u, z_1 > c u}: u^{d-1} times a constant times I_{1-c^2}((d-1)/2, 1/2),
the same incomplete Beta function as h_{d-2}(c), and in closed form
through d = 7.

Each model class is declared in one place, its :class:`TcfModel` subclass:
the TCF is its ``_tcf`` method, which takes a 1-D array of lags and returns
the values and their error estimates (the lags of a quadrature class are
one batch of integrals), a class that states the Taylor series of its TCF
carries ``_taylor`` (read by :func:`tcf_radial`), and a class that can be
simulated also carries ``_profile_sampler``, the size-biased storm profile
law used by :func:`tailcorr.simulate.simulate`, whose draws are evaluated
on demand (see ``_Profile``).  The command line reads a class's config keys from its
required dataclass fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar

import numpy as np
from scipy import special as _special

from . import series
from .distributions import Distribution1D, from_pdf
from .errors import DomainError, ModelError, SimulationError
from .numerics import (
    _float_rule,
    _integer,
    _integrate,
    _real,
    _reject,
    kappa_d,
)
from .radial import (
    Correlation,
    RadialFunction,
    Variogram,
    _taylor_hook,
    generalized_cauchy,
    powered_erfc,
    powered_exponential,
    truncated_power,
    whittle_matern,
)

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
    "tcf_radial",
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


def _cap_fraction(c, d: int):
    """I_{1-c^2}((d-1)/2, 1/2) for 0 <= c <= 1 and d >= 2: the share of a
    hemisphere of the unit sphere in R^d that lies in the cap z_1 > c.

    Closed form through d = 7 (DLMF 8.17, by the recurrence in the first
    parameter from 1/2 and 1): a polynomial in c and sqrt(1 - c^2), plus
    arccos c in even d.  A small c keeps its digits there, which the
    argument 1 - c^2 of ``betainc``, the form beyond d = 7, rounds away.
    h_d(s) is ``_cap_fraction(s, d + 2)``.
    """
    if d == 2:
        return (2.0 / math.pi) * np.arccos(c)
    if d == 3:
        return 1.0 - c
    if d == 4:
        return (2.0 / math.pi) * (np.arccos(c) - c * np.sqrt(1.0 - c * c))
    if d == 5:
        return 1.0 - 1.5 * c + 0.5 * c**3
    if d == 6:
        root = np.sqrt(1.0 - c * c)
        return (1.0 - (2.0 / math.pi) * (np.arcsin(c) + c * root)
                - (4.0 / (3.0 * math.pi)) * c * root**3)
    if d == 7:
        return 1.0 - 1.875 * c + 1.25 * c**3 - 0.375 * c**5
    return _special.betainc((d - 1) / 2.0, 0.5, 1.0 - c * c)


@_float_rule
def h_d(t, d: int):
    """Normalized overlap of two d-dimensional balls of diameter 1 at distance t.

    h_d(0) = 1, h_d(t) = 0 for t >= 1; closed form for every d.  Scalar in,
    float out; array in, ndarray out.
    """
    d = _integer(d, "d", 1)
    _reject(t, t < 0, "h_d requires t >= 0")
    return np.where(t >= 1.0, 0.0, _cap_fraction(np.minimum(t, 1.0), d + 2))


def laplace_factor(d: int) -> float:
    """The distance scaling 2 kappa_{d-1} / (d kappa_d) of the MPS Laplace
    transform (1 in d=1, 2/pi in d=2, 1/2 in d=3)."""
    d = _integer(d, "d", 1)
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


@_float_rule(at=2, result=True)
def overlap_integral(f: RadialFunction, d: int, t, *, tol: float = 1e-10):
    """int_{R^d} min(f(|z|), f(|z - t e_1|)) dz for radial non-increasing f.

    At t = 0 this is the full radial integral of f over R^d (the model
    normalization).  A float ``t`` gives a :class:`SpecialFnResult`; the
    lags of an array are one batch of integrals, returned as
    (values, abs_error_estimates).
    """
    d = _integer(d, "d", 1)
    _reject(t, ~(t >= 0), "t must be >= 0")
    t = t.ravel()
    half = 0.5 * t
    upper = f.support_bound if f.support_bound is not None else math.inf
    # The radial integrand at t = 0 behaves like u^(zero_exponent + d - 1).
    sing = np.where(t == 0.0, min(0.0, f.zero_exponent + (d - 1)), 0.0)
    if np.any(sing <= -1.0):
        raise ModelError(
            f"shape {f.name!r} is not integrable over R^{d} "
            f"(radial integrand exponent {float(sing.min()):.3g} at 0)")
    live = half < upper
    lows = half[live]
    if d == 1:
        def integrand(u, k):
            return f.func(u)
    else:
        cap_const = _cap_constant(d)

        def integrand(u, k):
            return (f.func(u) * u ** (d - 1) * cap_const
                    * _cap_fraction(lows[k] / u, d))

    values, errors = np.zeros(t.shape), np.zeros(t.shape)
    if live.any():
        values[live], errors[live] = _integrate(
            integrand, lows, upper, tol, singular_exponent_a=sing[live],
            points=f.kinks)
    return 2.0 * values, 2.0 * errors


# ---------------------------------------------------------------------------
# Sampling helpers for the size-biased profile samplers
# ---------------------------------------------------------------------------

#: Site cap for the dense-covariance Gaussian classes (BR/VBR/EG/EBG).
_GAUSSIAN_SITE_CAP = 2_000

#: ``profile() -> (start, ratios)``: one drawn storm divided by its value
#: at the conditioning site, evaluated on demand.  ``ratios`` is a new
#: float array, which the engine scales in place, of the profile at the
#: run of sites ``start .. start + len(ratios) - 1``; the profile is 0 at
#: every other site.  The bounded storms of M3b and MPS return the run
#: their ball or interval can reach, found by bisection on the sites'
#: first coordinate, which is non-decreasing in the row-major order of
#: :meth:`tailcorr.simulate.GridSpec.sites`; the other classes return
#: ``(0, ratios at every site)``.  The classes whose profile is a dense
#: matrix-vector product (BR, VBR, EG, EBG) set ``_PARTIAL_PROFILE`` and
#: also take ``profile(idx)``: the ratios at the sites ``idx`` only, for a
#: fraction of the cost, never above the whole profile's (a lower bound
#: within rounding, see :meth:`_GaussianRows.some`).
_Profile = Callable[..., tuple[int, np.ndarray] | np.ndarray]

#: ``draw(k, rng) -> profile``: makes every random draw of one storm, drawn
#: from the profile law size-biased by its value at site ``k``, in a fixed
#: order (the stream contract of :mod:`tailcorr.simulate`).
_ProfileDraw = Callable[[int, np.random.Generator], _Profile]

#: Multiplies a bound that went through ``np.exp``, which may round two
#: arguments a few units in the last place apart out of order.
_BELOW_EXP_ROUNDING = 1.0 - 2.0 ** -50

_UNIT_ROUNDOFF = 2.0 ** -53

#: The reach of a ball of radius r along the first axis is r times this
#: plus ``_REACH_FLOOR``.  A site x whose rounded distance
#: ``_distances`` to the centre c is at most r has |x_0 - c_0| < r (1 + 3u)
#: + 2^-537.4 (u the unit roundoff): that distance is at least
#: (1 - u) sqrt(a^2 (1 - u) - 2^-1075) for a = fl(x_0 - c_0) =
#: (x_0 - c_0)(1 + e), |e| <= u, since the squares of the other axes only
#: add to it and every rounding is monotone (2^-1075 bounds the error of
#: a subnormal square).  Rounded, the reach still exceeds that bound, and
#: as x_0 is a float, fl(c_0 - reach) <= x_0 <= fl(c_0 + reach).
_REACH_SCALE = 1.0 + 8.0 * _UNIT_ROUNDOFF
_REACH_FLOOR = 2.0 ** -537


def _storm_centre(rng: np.random.Generator, site: list[float],
                  offset: float) -> np.ndarray:
    """The point ``site + offset * v / |v|`` for a standard normal v, a
    uniform direction in R^dim, as a (dim, 1) column.  Each coordinate is
    taken in Python floats, with the bits of that array expression, and
    ``math.sqrt(v.dot(v))`` is what ``np.linalg.norm(v)`` computes, at a
    fraction of their cost."""
    v = rng.standard_normal(len(site))
    n = math.sqrt(v.dot(v))
    while n == 0.0:  # pragma: no cover - probability zero
        v = rng.standard_normal(len(site))
        n = math.sqrt(v.dot(v))
    return np.array([x + offset * (a / n)
                     for x, a in zip(site, v.tolist())])[:, None]


def _gaussian_factor(cov: np.ndarray) -> np.ndarray:
    """Factor ``A`` with ``A A^T = cov`` via symmetric eigendecomposition.

    Tolerates the tiny negative eigenvalues of valid but singular inputs
    (clipped to zero); genuinely indefinite matrices raise with the
    minimum eigenvalue attached.

    ``np.linalg.eigh`` reads only the lower triangle of ``cov``, so it
    factors the symmetric matrix that triangle defines without a
    symmetrized copy.  Both callers pass a matrix symmetric in every bit,
    for which ``0.5 * (cov + cov.T)`` is ``cov`` itself.  The eigenvectors
    are scaled in place, so while eigh runs ``cov`` is the only n x n
    array of the library alive (eigh holds its own copy, a 2 n^2
    workspace and the eigenvectors).
    """
    eigvals, factor = np.linalg.eigh(cov)
    floor = -1e-8 * max(1.0, float(eigvals[-1]))
    if eigvals[0] < floor:
        raise SimulationError(
            "covariance is not positive semidefinite",
            min_eigenvalue=float(eigvals[0]))
    factor *= np.sqrt(np.clip(eigvals, 0.0, None))
    return factor


class _GaussianRows:
    """y = A z for the factor ``A`` of a Gaussian class (BR, VBR, EG, EBG),
    on every site or on a few of them."""

    def __init__(self, factor: np.ndarray) -> None:
        self.factor = factor
        self._norms = np.sqrt(np.einsum("ij,ij->i", factor, factor))

    def some(self, z: np.ndarray, idx: np.ndarray, k: int):
        """Rows ``idx`` of y lowered, and row ``k`` lowered and raised, so
        that they bracket the same rows of the full product ``factor @ z``.

        BLAS rounds a row differently depending on the rows that share the
        call, so a row of a partial product may differ in its last bits.
        Each of the two rows lies within gamma_n |a|.|z| <= gamma_n ||a||
        ||z|| of the exact value, with gamma_n = n u / (1 - n u) for unit
        roundoff u (Higham, *Accuracy and Stability of Numerical
        Algorithms*, 2nd ed., section 3.1).  The slack 4 n u ||a|| ||z|| is
        twice their sum, which covers gamma_n > n u and the rounding of the
        slack itself.
        """
        rows = np.concatenate((idx, (k,)))
        y = self.factor[rows] @ z
        slack = self._norms[rows] * (4.0 * len(z) * _UNIT_ROUNDOFF
                                     * math.sqrt(z @ z))
        low = y - slack
        return low[:-1], low[-1], y[-1] + slack[-1]


def _pairwise_distances(sites: np.ndarray) -> np.ndarray:
    """The (m, m) distances between the rows of the (m, g) ``sites``.

    The squared differences are added axis by axis into one buffer, the
    order in which ``np.sqrt(np.sum(diff * diff, axis=2))`` sums fewer than
    eight axes, so the bits are those of that formula without its
    (m, m, g) arrays.  Entry (j, i) sums the negated differences of (i, j),
    so the matrix is symmetric in every bit."""
    m = sites.shape[0]
    dist, diff = np.zeros((m, m)), np.empty((m, m))
    for x in sites.T:
        np.subtract.outer(x, x, out=diff)
        diff *= diff
        dist += diff
    return np.sqrt(dist, out=dist)


def _gaussian_distances(model: TcfModel, sites: np.ndarray) -> np.ndarray:
    """Pairwise site distances for the dense Gaussian factorization of a
    BR, VBR, EG or EBG model, after the site cap and dimension checks."""
    if sites.shape[0] > _GAUSSIAN_SITE_CAP:
        raise DomainError(
            f"Gaussian-class grids are capped at {_GAUSSIAN_SITE_CAP} "
            f"sites for dense factorization, got {sites.shape[0]}")
    return _pairwise_distances(model._host(sites))


def _variogram_covariance(model: BRModel | VBRModel, sites: np.ndarray):
    """Covariance of the driving Gaussian process of a Brown-Resnick class
    anchored at the first site, its factor as :class:`_GaussianRows`, and
    half its variances.  The covariance is symmetric in every bit (entry
    (i, j) sums the same terms as (j, i)), so the samplers read the column
    of a site as its contiguous row.  The covariance is formed in one
    buffer, in the order of ``0.5 * (sig2[:, None] + sig2[None, :] -
    gamma)``, and the variogram matrix is dropped before the factorization."""
    gamma = model.variogram(_gaussian_distances(model, sites))
    # Variance anchored at the first site, copied so that gamma can go.
    sig2 = gamma[0].copy()
    cov = np.add.outer(sig2, sig2)
    cov -= gamma
    del gamma
    cov *= 0.5
    return cov, _GaussianRows(_gaussian_factor(cov)), 0.5 * sig2


def _correlation_factor(model: EGModel | EBGModel, sites: np.ndarray):
    """Correlation matrix of an extremal Gaussian class and its factor as
    :class:`_GaussianRows`.  The matrix is symmetric in every bit, as the
    distances are, so the samplers read the column of a site as its
    contiguous row."""
    corr = model.correlation(_gaussian_distances(model, sites))
    np.fill_diagonal(corr, 1.0)
    return corr, _GaussianRows(_gaussian_factor(corr))


def _tilted_profile(gauss: _GaussianRows, z: np.ndarray, k: int,
                    log_ratio: Callable, s: float) -> _Profile:
    """The profile ``exp(log_ratio(w, w[k], at, k, s))`` of a Brown-Resnick
    class on w = A z at the sites ``at``, for the scale ``s`` of the storm;
    ``log_ratio`` is non-decreasing in ``w - w[k]``, so the bracket of
    :meth:`_GaussianRows.some` bounds it from below."""

    def profile(idx=None):
        if idx is None:
            w = gauss.factor @ z
            return 0, np.exp(log_ratio(w, w[k], slice(None), k, s))
        w, _, w_k = gauss.some(z, idx, k)
        return np.exp(log_ratio(w, w_k, idx, k, s)) * _BELOW_EXP_ROUNDING

    return profile


def _conditioned_profile(gauss: _GaussianRows, normals: np.ndarray, k: int,
                         z_star: float, corr: np.ndarray,
                         ratio: Callable) -> _Profile:
    """The profile ``ratio(z, z*)`` of an extremal Gaussian class, 1 at site
    ``k``, where z = y + (z* - y_k) rho_k conditions y = A normals on
    z_k = z*.  ``ratio`` is non-decreasing in z, so raising y_k where rho_k
    is nonnegative and lowering it elsewhere bounds a partial profile from
    below."""

    def profile(idx=None):
        if idx is None:
            y = gauss.factor @ normals
            out = ratio(y + (z_star - y[k]) * corr[k], z_star)
            out[k] = 1.0
            return 0, out
        y, y_k_low, y_k_high = gauss.some(normals, idx, k)
        rho = corr[k, idx]
        return ratio(y + (z_star - np.where(rho >= 0.0, y_k_high, y_k_low))
                     * rho, z_star)

    return profile


def _distances(coords: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Distances from the point ``center`` (a column) to the sites whose
    coordinates are the rows of ``coords`` (one row per axis), with the
    bits of ``np.linalg.norm(pts - center, axis=1)`` at a third of its
    cost."""
    diff = coords - center
    return np.sqrt(np.add.reduce(diff * diff, axis=0))


# ---------------------------------------------------------------------------
# Model classes
# ---------------------------------------------------------------------------


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
class TcfModel:
    """The base of every model class: the ``dim`` field and the checks all
    classes share.  It declares no ``_tcf``; each class states its own."""

    #: Whether the profiles of the class also take ``profile(idx)``.
    _PARTIAL_PROFILE: ClassVar[bool] = False
    dim: int

    def __post_init__(self) -> None:
        _integer(self.dim, "dim", 1, error=ModelError)
        for f in fields(self):
            law = getattr(self, f.name) if f.init else None
            if isinstance(law, Distribution1D):
                _check_mixing(law, f"{f.name.replace('_', ' ')} law")

    def _host(self, sites: np.ndarray) -> np.ndarray:
        """The ``(m, g)`` grid ``sites`` as points of R^dim."""
        m, g = sites.shape
        if self.dim < g:
            raise DomainError(
                f"{type(self).__name__.removesuffix('Model')} model lives in "
                f"dimension {self.dim} and cannot host a {g}-dimensional grid")
        out = np.zeros((m, self.dim))
        out[:, :g] = sites
        return out


@dataclass(frozen=True)
class M3rModel(TcfModel):
    """Mixed moving maxima with random radial non-increasing shapes."""

    ensemble: ShapeEnsemble
    n_samples: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        _integer(self.n_samples, "n_samples", 1, error=ModelError)
        _integer(self.seed, "seed", 0, error=ModelError)

    def _tcf(self, t: np.ndarray, tol: float):
        """Mean overlap integral over ``n_samples`` shapes drawn from
        ``seed``, the same draws at every lag.  The error is the standard
        error of the mean (the one quadrature estimate when ``n_samples`` is
        1) plus the mean quadrature estimate.  A shape object drawn more
        than once is integrated once; its rows still count once per draw."""
        rng = np.random.default_rng(self.seed)
        n = self.n_samples
        shapes = [self.ensemble.sample(rng) for _ in range(n)]
        integrals = {}  # by id: ``shapes`` keeps every object alive
        for f in shapes:
            if id(f) not in integrals:
                integrals[id(f)] = overlap_integral(f, self.dim, t,
                                                    tol=max(tol, 1e-8))
        draws = [integrals[id(f)] for f in shapes]
        vals = np.array([v for v, _ in draws])
        errs = np.array([e for _, e in draws])
        se = (np.std(vals, axis=0, ddof=1) / math.sqrt(n) if n > 1
              else errs[0])
        return np.mean(vals, axis=0), se + np.mean(errs, axis=0)


@dataclass(frozen=True)
class M2rModel(TcfModel):
    """Moving maxima with one deterministic radial non-increasing shape.

    The shape must integrate to 1 over R^d; this is checked at construction
    by radial quadrature (tolerance ``normalization_tol``).
    """

    shape: RadialFunction
    normalization_tol: float = 1e-6
    _offset: Distribution1D = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
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
        # The center of a storm that contributes at a site lies at radial
        # offset rho with density proportional to rho^(d-1) f(rho); the
        # normalizer is the shape's unit integral over R^d.
        shape, dim = self.shape, self.dim
        bound = (shape.support_bound if shape.support_bound is not None
                 else math.inf)
        object.__setattr__(self, "_offset", Distribution1D(
            name=f"offset[{shape.name}]",
            pdf=lambda rho: rho ** (dim - 1) * shape.func(rho),
            support=(0.0, bound),
            pdf_singular_exponent=(dim - 1) + shape.zero_exponent,
            pdf_points=shape.kinks,
        ))

    def _tcf(self, t: np.ndarray, tol: float):
        return overlap_integral(self.shape, self.dim, t, tol=tol)

    def _profile_sampler(self, sites: np.ndarray) -> _ProfileDraw:
        # Storm center at a radial offset rho drawn from the offset law,
        # uniform direction; profile ratio f(.)/f(rho).
        pts = self._host(sites)
        coords, rows = np.ascontiguousarray(pts.T), pts.tolist()
        func, offset = self.shape.func, self._offset.sample_one

        def draw_m2r(k: int, rng: np.random.Generator) -> _Profile:
            rho = offset(rng)
            center = _storm_centre(rng, rows[k], rho)
            at_rho = func(rho)

            def profile():
                return 0, func(_distances(coords, center)) / at_rho

            return profile

        return draw_m2r


@dataclass(frozen=True)
class M3bModel(TcfModel):
    """Mixed moving maxima with ball indicator shapes of random radius R."""

    radius: Distribution1D

    def _tcf(self, t: np.ndarray, tol: float):
        d = self.dim
        values, errors = np.ones(t.shape), np.zeros(t.shape)
        lag = t > 0.0
        if lag.any():
            # h_d(t / 2r) has a kink where the radius reaches t/2.
            values[lag], errors[lag] = self.radius.expectations(
                lambda r, s: h_d(np.minimum(s / (2.0 * r), 1.0), d), t[lag],
                tol=tol, points=0.5 * t[lag, None])
        return values, errors

    def _profile_sampler(self, sites: np.ndarray) -> _ProfileDraw:
        # Radius from the model law unchanged, center uniform in the ball
        # around the site; profile ratio is the covering indicator, taken
        # on the run of sites within reach of the center along the first
        # axis.
        pts = self._host(sites)
        coords, rows = np.ascontiguousarray(pts.T), pts.tolist()
        first = coords[0]
        dim, radius = self.dim, self.radius.sample_one

        def draw_m3b(k: int, rng: np.random.Generator) -> _Profile:
            r = radius(rng)
            w = r * rng.random() ** (1.0 / dim)
            center = _storm_centre(rng, rows[k], w)

            def profile():
                c, reach = center.item(0), r * _REACH_SCALE + _REACH_FLOOR
                start = int(first.searchsorted(c - reach))
                stop = int(first.searchsorted(c + reach, "right"))
                near = _distances(coords[:, start:stop], center)
                return start, (near <= r).astype(float)

            return profile

        return draw_m3b


@dataclass(frozen=True)
class MPSModel(TcfModel):
    """Mixed Poisson storm process; chi is the Laplace transform of the
    intensity mixing law F at distance scaled by laplace_factor(dim)."""

    mixing: Distribution1D

    def _tcf(self, t: np.ndarray, tol: float):
        return self.mixing.expectations(lambda s, c: np.exp(-c * s),
                                        laplace_factor(self.dim) * t, tol=tol)

    def _taylor(self, t: np.ndarray, order: int, tol: float) -> series.Series:
        """Taylor coefficients of chi at the lags ``t``: coefficient k is
        E[(-cS)^k e^(-ctS)] / k!, c = ``laplace_factor(dim)``, and its bound
        the quadrature error estimate / k! (an estimate, not a strict
        bound).  Every (k, t) pair is one integral of a single batch of
        expectations."""
        c = laplace_factor(self.dim)
        k = np.repeat(np.arange(order + 1), t.size)
        ct = np.tile(c * t, order + 1)

        def moment(s, pair):
            pair = pair.astype(np.intp)
            return (-c * s) ** k[pair] * np.exp(-ct[pair] * s)

        values, errors = self.mixing.expectations(
            moment, np.arange(k.size, dtype=float), tol=tol)
        factorial = _special.factorial(np.arange(order + 1))[:, None]
        shape = (order + 1, t.size)
        return series.Series(values.reshape(shape) / factorial,
                             errors.reshape(shape) / factorial)

    def _profile_sampler(self, sites: np.ndarray) -> _ProfileDraw:
        # Intensity beta from the mixing law unchanged, cell length
        # Gamma(2,1)/beta (the size-biased exponential cell) covering the
        # site uniformly; profile ratio is the covering indicator, 1 on
        # the run of sites in the cell.
        if self.dim != 1:
            raise DomainError(
                "Poisson-storm simulation is supported in dimension 1 only "
                f"(model has dim {self.dim})")
        if sites.shape[1] != 1:
            raise DomainError("a Poisson-storm model requires a 1-D grid")
        x, mixing = sites[:, 0], self.mixing.sample_one

        def draw_mps(k: int, rng: np.random.Generator) -> _Profile:
            beta = mixing(rng)
            length = rng.gamma(2.0) / beta
            left = x[k] - length * rng.random()

            def profile():
                # The sites x >= left and x <= left + length of the
                # non-decreasing x.
                start = int(x.searchsorted(left))
                stop = int(x.searchsorted(left + length, "right"))
                return start, np.ones(stop - start)

            return profile

        return draw_mps


@dataclass(frozen=True)
class BRModel(TcfModel):
    """Brown-Resnick process with the given variogram."""

    _PARTIAL_PROFILE: ClassVar[bool] = True
    variogram: Variogram

    def _tcf(self, t: np.ndarray, tol: float):
        return (_special.erfc(np.sqrt(self.variogram(t) / 8.0)),
                np.zeros(t.shape))

    def _profile_sampler(self, sites: np.ndarray) -> _ProfileDraw:
        # V = exp(W - sigma^2/2); size-biasing is the exponential tilt, a
        # mean shift by the covariance column of the conditioning site (read
        # as its row).
        cov, gauss, half = _variogram_covariance(self, sites)
        m = sites.shape[0]

        def log_ratio(w, w_k, at, k, _):
            return (w - w_k) + (cov[k, at] - cov[k, k]) - (half[at] - half[k])

        def draw_br(k: int, rng: np.random.Generator) -> _Profile:
            return _tilted_profile(gauss, rng.standard_normal(m), k,
                                   log_ratio, 1.0)

        return draw_br


@dataclass(frozen=True)
class VBRModel(TcfModel):
    """Variance-mixed Brown-Resnick: Gaussian scale S ~ G applied to the
    driving process, chi(t) = int erfc(s sqrt(gamma(t)/8)) dG(s)."""

    _PARTIAL_PROFILE: ClassVar[bool] = True
    variogram: Variogram
    scale_mixing: Distribution1D

    def _tcf(self, t: np.ndarray, tol: float):
        return self.scale_mixing.expectations(
            lambda s, arg: _special.erfc(s * arg),
            np.sqrt(self.variogram(t) / 8.0), tol=tol)

    def _profile_sampler(self, sites: np.ndarray) -> _ProfileDraw:
        # Scale S from the mixing law unchanged, mean shift S^2 times the
        # covariance column of the conditioning site.
        cov, gauss, half = _variogram_covariance(self, sites)
        m, scale = sites.shape[0], self.scale_mixing.sample_one

        def log_ratio(w, w_k, at, k, s):  # s >= 0: non-decreasing in w - w_k
            return s * (w - w_k) + s * s * (
                (cov[k, at] - cov[k, k]) - (half[at] - half[k]))

        def draw_vbr(k: int, rng: np.random.Generator) -> _Profile:
            s = scale(rng)
            return _tilted_profile(gauss, rng.standard_normal(m), k,
                                   log_ratio, s)

        return draw_vbr


@dataclass(frozen=True)
class EGModel(TcfModel):
    """Extremal Gaussian process with correlation rho."""

    _PARTIAL_PROFILE: ClassVar[bool] = True
    correlation: Correlation

    def _tcf(self, t: np.ndarray, tol: float):
        rho = self.correlation(t)
        return (1.0 - np.sqrt(np.maximum(0.0, 1.0 - rho) / 2.0),
                np.zeros(t.shape))

    def _profile_sampler(self, sites: np.ndarray) -> _ProfileDraw:
        # The value at the site is Rayleigh, the rest follows by exact
        # Gaussian conditioning; profile ratio (Z)+ / z*.
        corr, gauss = _correlation_factor(self, sites)
        m = sites.shape[0]

        def ratio(z, z_star):
            return np.maximum(z, 0.0) / z_star

        def draw_eg(k: int, rng: np.random.Generator) -> _Profile:
            z_star = rng.rayleigh()
            return _conditioned_profile(
                gauss, rng.standard_normal(m), k, z_star, corr, ratio)

        return draw_eg


@dataclass(frozen=True)
class EBGModel(TcfModel):
    """Extremal binary Gaussian process with correlation rho."""

    _PARTIAL_PROFILE: ClassVar[bool] = True
    correlation: Correlation

    def _tcf(self, t: np.ndarray, tol: float):
        rho = np.clip(self.correlation(t), -1.0, 1.0)
        return np.arcsin(rho) / math.pi + 0.5, np.zeros(t.shape)

    def _profile_sampler(self, sites: np.ndarray) -> _ProfileDraw:
        # The value at the site is half-normal, the rest follows by exact
        # Gaussian conditioning; profile ratio is the positivity indicator.
        corr, gauss = _correlation_factor(self, sites)
        m = sites.shape[0]

        def ratio(z, _):
            return (z > 0.0).astype(float)

        def draw_ebg(k: int, rng: np.random.Generator) -> _Profile:
            z_star = abs(rng.standard_normal())
            return _conditioned_profile(
                gauss, rng.standard_normal(m), k, z_star, corr, ratio)

        return draw_ebg


@dataclass(frozen=True)
class ParametricModel(TcfModel):
    """A member of one of the named parametric families of radial functions;
    a parameter outside the family's domain is rejected at construction."""

    family: str
    nu: float
    beta: float = 1.0
    _function: RadialFunction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.family not in PARAMETRIC_FAMILIES:
            raise ModelError(
                f"unknown family {self.family!r}; choose from "
                f"{sorted(PARAMETRIC_FAMILIES)}")
        object.__setattr__(self, "_function",
                           _FAMILIES[self.family].function(self.nu, self.beta))

    def _tcf(self, t: np.ndarray, tol: float):
        return self._function(t), np.zeros(t.shape)


@dataclass(frozen=True)
class ErfcMixtureModel(TcfModel):
    """Scale mixture phi(t) = int_0^inf erfc(s t) dG(s).

    ``closed_form``, when present, is an independently derived analytic
    expression for phi; evaluation always goes through the mixture integral
    so the two routes stay comparable.
    """

    mixing: Distribution1D
    closed_form: Callable[[float], float] | None = None

    def _tcf(self, t: np.ndarray, tol: float):
        return self.mixing.expectations(lambda s, u: _special.erfc(s * u), t,
                                        tol=tol)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@_float_rule(at=1, result=True)
def tcf_result(model: TcfModel, t, *, tol: float = 1e-9):
    """chi(t) for the given model, with an absolute error estimate.

    Closed-form classes report error 0; quadrature classes report the
    integration error; the Monte Carlo class (M3r) reports a standard error
    of draws from its ``seed`` field.  A float ``t`` gives a
    :class:`SpecialFnResult`; the lags of an array are one batch, returned
    as (values, abs_error_estimates).
    """
    _reject(t, ~(t >= 0), "t must be >= 0")
    if not hasattr(model, "_tcf"):
        raise ModelError(f"unknown model type {type(model).__name__}")
    return model._tcf(t.ravel(), tol)


@_float_rule(at=1)
def tcf(model: TcfModel, t, *, tol: float = 1e-9):
    """chi(t); scalar in, float out; array in, ndarray out.  The lags of an
    array are one batch of integrals."""
    return tcf_result.__wrapped__(model, t, tol=tol)[0]


def tcf_radial(model: TcfModel, *, tol: float = 1e-9,
               name: str | None = None) -> RadialFunction:
    """The TCF of ``model`` as a :class:`RadialFunction`, the candidate that
    the membership batteries and recovery take.

    ``func`` is :func:`tcf` at ``tol``.  A class that states its own Taylor
    series (MPS) also gives the ``taylor`` hook, so every derivative comes
    from the series and none from differences of quadrature output, whose
    noise a difference ladder amplifies.  The hook's second array is the
    quadrature error estimate / k! of coefficient k, an estimate and not a
    strict bound (in d = 2, 1 of 450 entries was 1.34 times its estimate),
    and ``membership._derivative_table`` uses it as an error bar.  The
    other classes give ``func`` only.
    """
    taylor = None
    if hasattr(model, "_taylor"):
        taylor = _taylor_hook(lambda x, order: model._taylor(x, order, tol))
    return RadialFunction(
        name or f"tcf[{type(model).__name__.removesuffix('Model')}]",
        lambda t: tcf(model, t, tol=tol), taylor=taylor)


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
        above = v > self.lo if self.lo_open else v >= self.lo
        below = v < self.hi if self.hi_open else v <= self.hi
        return above and below

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
    it is a valid tail correlation function; ``cm_range``: nu for which it
    is completely monotone (``None``: for no nu).  ``tcf_sharp`` records
    whether the TCF bound is known to be sharp.
    """

    family: str
    dim: int | None
    cf_range: ParamInterval
    tcf_range: ParamInterval
    tcf_sharp: bool
    note: str = ""
    cm_range: ParamInterval | None = None


def _dimension_free(cf: ParamInterval, tcf: ParamInterval,
                    cm: ParamInterval | None):
    """Bounds that hold in every dimension and are sharp."""
    return lambda family, d: ParametricBounds(family, None, cf, tcf, True,
                                              cm_range=cm)


def _truncated_power_bounds(family: str, d: int | None) -> ParametricBounds:
    """(1 - r)_+^nu: the TCF bound nu >= floor(d/2) + 1 is sharp for odd d;
    for even d it is valid but its sharpness is unknown."""
    if d is None:
        raise DomainError(
            "truncated_power bounds are dimension-dependent; pass d >= 1")
    d = _integer(d, "d", 1)
    sharp = d % 2 == 1
    return ParametricBounds(
        family, d,
        ParamInterval((d + 1) / 2.0, math.inf, lo_open=False, hi_open=True),
        ParamInterval(float(d // 2 + 1), math.inf, lo_open=False,
                      hi_open=True),
        sharp, "" if sharp else "bound valid for even d, sharpness unknown")


@dataclass(frozen=True)
class _Family:
    """A parametric family: its radial constructor and the bounds of nu."""

    constructor: Callable[..., RadialFunction]
    bounds: Callable[[str, int | None], ParametricBounds]
    takes_beta: bool = False

    def function(self, nu: float, beta: float) -> RadialFunction:
        if self.takes_beta:
            return self.constructor(nu, beta)
        if beta != 1.0:  # NaN included
            raise DomainError(f"the {self.constructor.__name__} family takes "
                              f"no beta; got beta={beta!r}")
        return self.constructor(nu)


# Each family: its constructor and its ranges of nu for a valid correlation
# function, a valid TCF and complete monotonicity.
_FAMILIES = {
    "powered_exponential": _Family(powered_exponential, _dimension_free(
        ParamInterval(0, 2), ParamInterval(0, 1), ParamInterval(0, 1))),
    "whittle_matern": _Family(whittle_matern, _dimension_free(
        ParamInterval(0, math.inf, hi_open=True), ParamInterval(0, 0.5),
        ParamInterval(0, 0.5))),
    "cauchy": _Family(generalized_cauchy, _dimension_free(
        ParamInterval(0, 2), ParamInterval(0, 1), ParamInterval(0, 1)),
        takes_beta=True),
    "powered_erfc": _Family(powered_erfc, _dimension_free(
        ParamInterval(0, 1), ParamInterval(0, 1), ParamInterval(0, 0.5))),
    "truncated_power": _Family(truncated_power, _truncated_power_bounds),
}

PARAMETRIC_FAMILIES = tuple(_FAMILIES)


def _family(name: str) -> _Family:
    if name not in _FAMILIES:
        raise DomainError(
            f"unknown family {name!r}; choose from {sorted(PARAMETRIC_FAMILIES)}")
    return _FAMILIES[name]


def parametric_tcf(family: str, nu: float, t, *, beta: float = 1.0):
    """Evaluate the named parametric family at parameter nu (and beta for
    the Cauchy family).  Scalar or array t."""
    lags = np.asarray(t, dtype=float)
    _reject(lags, ~(lags >= 0), "t must be >= 0")
    return _family(family).function(nu, beta)(t)


def parametric_bounds(family: str, d: int | None = None) -> ParametricBounds:
    """Sharp validity bounds of the family parameter; the truncated-power
    family is dimension-dependent and requires ``d``."""
    return _family(family).bounds(family, d)


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


def _row2_density(nu: float) -> Callable:
    # Density of the mixing law whose erfc scale mixture is the
    # Whittle-Matern function with 0 < nu < 1/2:
    #   g(s) = C int_0^s x^{2 nu - 3} e^{-1/(4x^2)} (s^2-x^2)^{-nu-1/2} dx,
    #   C = sqrt(pi) / (Gamma(nu) Gamma(1/2 - nu)).
    # The substitution x^2 = s^2/(1 + v) turns it into Tricomi's confluent
    # hypergeometric function (DLMF 13.4.4):
    #   g(s) = sqrt(pi) / (2 Gamma(nu)) s^{-3} e^{-a} U(1/2 - nu, 2 - nu, a),
    # with a = 1/(4 s^2).  As a -> 0, U ~ Gamma(1-nu)/Gamma(1/2-nu) a^{nu-1}
    # to relative order a^{1-nu}; below a = 1e-200 that asymptote is exact
    # in floats and keeps g finite where s^{-3} underflows or s^2 overflows.
    # Beyond a = 746 the factor e^{-a} underflows and g is 0.
    c_nu = math.sqrt(math.pi) / (2.0 * math.gamma(nu))
    c_tail = (c_nu * math.gamma(1.0 - nu) / math.gamma(0.5 - nu)
              * 4.0 ** (1.0 - nu))

    @_float_rule
    def g(s):
        out = np.zeros(s.shape)
        with np.errstate(over="ignore", divide="ignore"):
            a = np.where(s > 0.0, 0.25 / (s * s), math.inf)
        tail = a < 1e-200
        body = (a < 746.0) & ~tail
        sb, ab = s[body], a[body]
        out[body] = c_nu * sb**-3 * np.exp(-ab) * _special.hyperu(
            0.5 - nu, 2.0 - nu, ab)
        out[tail] = c_tail * s[tail] ** (-1.0 - 2.0 * nu)
        return out

    return g


def erfc_mixture(row: int, param: float, dim: int = 1) -> ErfcMixtureModel:
    """The catalog rows of erfc scale mixtures with closed-form values.

    ====  =================================  ======================================
    row   mixing law G (parameter a or nu)   closed form phi(t)
    ====  =================================  ======================================
    1     G(s) = exp(-1/(a s)^2)             exp(-2t/a)
    2     density via Tricomi's U            Whittle-Matern, 0 < nu < 1/2
    3     G(s) = erf(a s)                    1 - (2/pi) arctan(t/a)
    4     G(s) = 1 - exp(-(a s)^2)           1 - (1 + (t/a)^{-2})^{-1/2}
    ====  =================================  ======================================

    Row 2's mixing density is
    g(s) = sqrt(pi) / (2 Gamma(nu)) s^{-3} e^{-a} U(1/2 - nu, 2 - nu, a) with
    a = 1/(4 s^2), U Tricomi's confluent hypergeometric function.
    """
    row = _integer(row, "row", 1, 4)
    if row == 2:
        nu = _real(param, "row 2 nu", 0.0, 0.5, open_high=True)
    else:
        a = _real(param, f"row {row} a", 0.0)
    if row == 1:
        peak = math.sqrt(2.0 / 3.0) / a
        mixing = from_pdf(
            f"exp(-1/(({a:g})s)^2)",
            lambda s: np.exp(-1.0 / (a * s) ** 2) * 2.0 / (a * a * s**3),
            points=[peak])
        closed = _float_rule(lambda t: np.exp(-2.0 * t / a))
    elif row == 2:
        wm = whittle_matern(nu)
        mixing = from_pdf(f"wm_mixing(nu={nu:g})", _row2_density(nu))
        closed = wm.func
    elif row == 3:
        c = 2.0 * a / math.sqrt(math.pi)
        mixing = from_pdf(f"erf(({a:g})s)",
                          lambda s: c * np.exp(-((a * s) ** 2)))
        closed = _float_rule(lambda t: 1.0 - 2.0 / math.pi * np.arctan(t / a))
    else:
        mixing = from_pdf(
            f"1-exp(-(({a:g})s)^2)",
            lambda s: 2.0 * a * a * s * np.exp(-((a * s) ** 2)))
        # 1 - (1 + (t/a)^-2)^-1/2, without the pole of (t/a)^-2 at t = 0.
        closed = _float_rule(lambda t: 1.0 - t / np.hypot(t, a))
    return ErfcMixtureModel(dim=dim, mixing=mixing, closed_form=closed)
