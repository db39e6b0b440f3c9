"""Exact simulation of stationary max-stable processes on regular grids.

Every supported model is simulated by extremal-function enumeration: for
each grid site the Poisson storm values at that site are generated in
decreasing order as ``1/Gamma_n`` (unit-rate arrivals), each paired with a
storm profile drawn from the law size-biased by its value at the site, and
a candidate field is kept only when it does not exceed the finished sites.
The enumeration stops at a site as soon as the next storm value falls below
the running maximum, which is the exact domination rule, so the output has
exactly standard Frechet margins and the exact joint law of the model -- no
storm-window or largest-storm truncation is involved for any class,
bounded or not.

The per-class ingredient is the size-biased profile relative to its value
at the conditioning site:

* moving maxima over a fixed shape ``f`` (normalized to unit integral):
  storm center at radial offset ``rho`` with density proportional to
  ``rho^(d-1) f(rho)``, uniform direction; profile ratio ``f(.)/f(rho)``;
* random balls (indicator shapes normalized by ball volume): radius from
  the model law unchanged, center uniform in the ball around the site;
  profile ratio is the covering indicator;
* Poisson storms (d = 1): intensity ``beta`` from the mixing law
  unchanged, cell length ``Gamma(2,1)/beta`` (the size-biased exponential
  cell) covering the site uniformly; profile ratio is the covering
  indicator;
* Brown-Resnick: ``V = exp(W - sigma^2/2)`` with anchored covariance;
  size-biasing is the exponential tilt, i.e. a mean shift by the
  covariance column of the conditioning site;
* variance-mixed Brown-Resnick: scale ``S`` from the mixing law unchanged,
  mean shift ``S^2`` times the covariance column;
* extremal Gaussian: the value at the site is Rayleigh, the rest follows
  by exact Gaussian conditioning; profile ratio ``(Z)+ / z*``;
* extremal binary Gaussian: the value at the site is half-normal, same
  conditioning; profile ratio is the positivity indicator.

Covariance factors are taken from the symmetric eigendecomposition with
small negative eigenvalues clipped, so degenerate but valid inputs (for
example a correlation identically one) simulate correctly; genuinely
indefinite inputs raise :class:`~tailcorr.errors.SimulationError` carrying
the minimum eigenvalue.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .distributions import Distribution1D
from .errors import DomainError, SimulationError
from .models import (
    BRModel,
    EBGModel,
    EGModel,
    M2rModel,
    M3bModel,
    MPSModel,
    TcfModel,
    VBRModel,
)
from .numerics import quadrature
from .radial import RadialFunction

__all__ = [
    "GridSpec",
    "GridField",
    "Truncation",
    "SimConfig",
    "LagEstimate",
    "simulate",
    "transform_margins",
    "estimate_chi",
]

#: Site cap for the dense-covariance Gaussian classes (BR/VBR/EG/EBG).
_GAUSSIAN_SITE_CAP = 2_000

_MARGINS = ("frechet", "gumbel")


# ---------------------------------------------------------------------------
# Grid geometry and fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """A regular grid in one or two dimensions.

    Sites are ``origin + spacing * index`` along each axis; :meth:`sites`
    lists them in row-major order, matching ``values.ravel()`` of a
    :class:`GridField` on the same grid.
    """

    dim: int
    shape: tuple[int, ...]
    spacing: float = 1.0
    origin: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise DomainError(f"grid dim must be 1 or 2, got {self.dim!r}")
        shape = tuple(int(n) for n in np.atleast_1d(self.shape))
        if len(shape) != self.dim or any(n < 1 for n in shape):
            raise DomainError(
                f"grid shape {self.shape!r} is not {self.dim} positive sizes")
        spacing = float(self.spacing)
        if not math.isfinite(spacing) or spacing <= 0:
            raise DomainError(f"spacing must be positive, got {self.spacing!r}")
        origin = ((0.0,) * self.dim if self.origin is None
                  else tuple(float(x) for x in np.atleast_1d(self.origin)))
        if len(origin) != self.dim or not all(map(math.isfinite, origin)):
            raise DomainError(
                f"origin {self.origin!r} is not {self.dim} finite coordinates")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.shape))

    def sites(self) -> np.ndarray:
        """All grid sites as an ``(n_sites, dim)`` array, row-major."""
        axes = [self.origin[a] + self.spacing * np.arange(self.shape[a])
                for a in range(self.dim)]
        if self.dim == 1:
            return axes[0][:, None]
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])


@dataclass(frozen=True)
class GridField:
    """One realization of a random field on a regular grid.

    ``margins`` tags the marginal scale: ``"frechet"`` (standard Frechet,
    values strictly positive) or ``"gumbel"`` (= log of the Frechet scale).
    ``values`` has exactly the grid's shape.
    """

    grid: GridSpec
    values: np.ndarray
    margins: str = "frechet"

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise DomainError(
                f"values shape {vals.shape} does not match grid shape "
                f"{self.grid.shape}")
        if self.margins not in _MARGINS:
            raise DomainError(
                f"margins must be one of {_MARGINS}, got {self.margins!r}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("field values must be finite")
        if self.margins == "frechet" and not np.all(vals > 0):
            raise DomainError("Frechet-margin values must be positive")
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def origin(self) -> tuple[float, ...]:
        return self.grid.origin

    @property
    def spacing(self) -> float:
        return self.grid.spacing

    @property
    def shape(self) -> tuple[int, ...]:
        return self.grid.shape


@dataclass(frozen=True)
class Truncation:
    """Storm-enumeration budget.

    ``poisson_points_max`` caps the total number of storm candidates
    examined per realization; the exact enumeration needs about two per
    site on average, so the default is a pure safety valve against
    mis-normalized user models, and exceeding it raises rather than
    silently emitting a biased field.
    """

    poisson_points_max: int = 10_000

    def __post_init__(self) -> None:
        if int(self.poisson_points_max) < 1:
            raise DomainError(
                f"poisson_points_max must be >= 1, got {self.poisson_points_max!r}")
        object.__setattr__(self, "poisson_points_max",
                           int(self.poisson_points_max))


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run."""

    model: TcfModel
    grid: GridSpec
    n_realizations: int
    seed: int
    truncation: Truncation = field(default_factory=Truncation)

    def __post_init__(self) -> None:
        if int(self.n_realizations) < 1:
            raise DomainError(
                f"n_realizations must be >= 1, got {self.n_realizations!r}")
        object.__setattr__(self, "n_realizations", int(self.n_realizations))
        seed = int(self.seed)
        if seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)
        if not isinstance(self.grid, GridSpec):
            raise DomainError("grid must be a GridSpec")
        if not isinstance(self.truncation, Truncation):
            raise DomainError("truncation must be a Truncation")


# ---------------------------------------------------------------------------
# Sampling helpers
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Per-class size-biased profile samplers
# ---------------------------------------------------------------------------


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


def _profile_sampler(model: TcfModel, sites: np.ndarray,
                     ) -> Callable[[int, np.random.Generator], np.ndarray]:
    """Build ``draw(k, rng) -> ratios`` for the model on the given sites.

    ``ratios`` is the storm profile divided by its value at site ``k``,
    drawn from the profile law size-biased by that value; entry ``k`` is
    exactly 1.
    """
    if isinstance(model, M2rModel):
        pts = _embed_sites(sites, model.dim, "an M2r model")
        shape = model.shape
        offset = _radial_offset_sampler(shape, model.dim)

        def draw_m2r(k: int, rng: np.random.Generator) -> np.ndarray:
            rho = offset(rng)
            center = pts[k] + rho * _unit_vector(rng, model.dim)
            dists = np.linalg.norm(pts - center, axis=1)
            return shape(dists) / shape.func(rho)

        return draw_m2r

    if isinstance(model, M3bModel):
        pts = _embed_sites(sites, model.dim, "an M3b model")
        radius = _law_sampler(model.radius)

        def draw_m3b(k: int, rng: np.random.Generator) -> np.ndarray:
            r = radius(rng)
            w = r * rng.uniform() ** (1.0 / model.dim)
            center = pts[k] + w * _unit_vector(rng, model.dim)
            return (np.linalg.norm(pts - center, axis=1) <= r).astype(float)

        return draw_m3b

    if isinstance(model, MPSModel):
        if model.dim != 1:
            raise DomainError(
                "Poisson-storm simulation is supported in dimension 1 only "
                f"(model has dim {model.dim})")
        if sites.shape[1] != 1:
            raise DomainError("a Poisson-storm model requires a 1-D grid")
        x = sites[:, 0]
        mixing = _law_sampler(model.mixing)

        def draw_mps(k: int, rng: np.random.Generator) -> np.ndarray:
            beta = mixing(rng)
            length = rng.gamma(2.0) / beta
            left = x[k] - rng.uniform(0.0, length)
            return ((x >= left) & (x <= left + length)).astype(float)

        return draw_mps

    if isinstance(model, (BRModel, VBRModel, EGModel, EBGModel)):
        m = sites.shape[0]
        if m > _GAUSSIAN_SITE_CAP:
            raise DomainError(
                f"Gaussian-class grids are capped at {_GAUSSIAN_SITE_CAP} "
                f"sites for dense factorization, got {m}")
        if sites.shape[1] > model.dim:
            raise DomainError(
                f"model lives in dimension {model.dim} and cannot host a "
                f"{sites.shape[1]}-dimensional grid")
        dist = _pairwise_distances(sites)

        if isinstance(model, (BRModel, VBRModel)):
            gamma = model.variogram(dist)
            sig2 = gamma[0]  # variance anchored at the first site
            cov = 0.5 * (sig2[:, None] + sig2[None, :] - gamma)
            factor = _gaussian_factor(cov)
            half = 0.5 * sig2

            if isinstance(model, BRModel):
                def draw_br(k: int, rng: np.random.Generator) -> np.ndarray:
                    w = factor @ rng.standard_normal(m)
                    log_ratio = (w - w[k]) + (cov[:, k] - cov[k, k]) \
                        - (half - half[k])
                    return np.exp(log_ratio)

                return draw_br

            scale = _law_sampler(model.scale_mixing)

            def draw_vbr(k: int, rng: np.random.Generator) -> np.ndarray:
                s = scale(rng)
                w = factor @ rng.standard_normal(m)
                log_ratio = s * (w - w[k]) + s * s * (
                    (cov[:, k] - cov[k, k]) - (half - half[k]))
                return np.exp(log_ratio)

            return draw_vbr

        corr = model.correlation(dist)
        np.fill_diagonal(corr, 1.0)
        factor = _gaussian_factor(corr)

        if isinstance(model, EGModel):
            def draw_eg(k: int, rng: np.random.Generator) -> np.ndarray:
                z_star = rng.rayleigh()
                y = factor @ rng.standard_normal(m)
                z = y + (z_star - y[k]) * corr[:, k]
                out = np.maximum(z, 0.0) / z_star
                out[k] = 1.0
                return out

            return draw_eg

        def draw_ebg(k: int, rng: np.random.Generator) -> np.ndarray:
            z_star = abs(rng.standard_normal())
            y = factor @ rng.standard_normal(m)
            z = y + (z_star - y[k]) * corr[:, k]
            out = (z > 0.0).astype(float)
            out[k] = 1.0
            return out

        return draw_ebg

    raise DomainError(
        f"simulation is not supported for {type(model).__name__}; supported "
        "classes: M3b, M2r, MPS (d=1), BR, VBR, EG, EBG")


# ---------------------------------------------------------------------------
# The exact engine
# ---------------------------------------------------------------------------


def _simulate_one(draw: Callable[[int, np.random.Generator], np.ndarray],
                  n_sites: int, rng: np.random.Generator,
                  budget: int) -> np.ndarray:
    """One exact realization by per-site extremal-function enumeration."""
    values = np.zeros(n_sites)
    spent = 0
    for k in range(n_sites):
        arrival = rng.exponential()
        while 1.0 / arrival > values[k]:
            spent += 1
            if spent > budget:
                raise SimulationError(
                    f"storm budget exceeded ({budget} candidates); the model "
                    "normalization is likely inconsistent")
            candidate = draw(k, rng) / arrival
            if np.all(candidate[:k] <= values[:k]):
                np.maximum(values, candidate, out=values)
            arrival += rng.exponential()
    return values


def simulate(config: SimConfig) -> Iterator[GridField]:
    """Stream exact realizations of the configured max-stable process.

    Yields ``config.n_realizations`` fields with standard Frechet margins
    (use :func:`transform_margins` for Gumbel).  Realizations are
    independent and derived from per-index subseeds of ``config.seed``, so
    the stream is bit-reproducible and may be regenerated in any order.

    Raises :class:`~tailcorr.errors.DomainError` for unsupported model
    classes or grids (Poisson storms require d = 1; Gaussian classes cap
    the site count) and :class:`~tailcorr.errors.SimulationError` for
    indefinite covariances, with the minimum eigenvalue attached.
    """
    sites = config.grid.sites()
    draw = _profile_sampler(config.model, sites)
    budget = config.truncation.poisson_points_max
    children = np.random.SeedSequence(config.seed).spawn(config.n_realizations)

    def stream() -> Iterator[GridField]:
        for child in children:
            rng = np.random.default_rng(child)
            values = _simulate_one(draw, len(sites), rng, budget)
            yield GridField(grid=config.grid,
                            values=values.reshape(config.grid.shape),
                            margins="frechet")

    return stream()


# ---------------------------------------------------------------------------
# Margins and the extremal-coefficient estimator
# ---------------------------------------------------------------------------


def transform_margins(field: GridField, to: str) -> GridField:
    """Re-express a field on the requested marginal scale.

    Gumbel = log(Frechet) and Frechet = exp(Gumbel); the round trip is
    exact to floating point.  A field tagged Frechet with non-positive
    values is corrupt and rejected.
    """
    if to not in _MARGINS:
        raise DomainError(f"margins must be one of {_MARGINS}, got {to!r}")
    if to == field.margins:
        return field
    if field.margins == "frechet":
        if not np.all(field.values > 0):
            raise DomainError(
                "corrupt field: Frechet-margin values must be positive")
        values = np.log(field.values)
    else:
        values = np.exp(field.values)
    return GridField(grid=field.grid, values=values, margins=to)


class LagEstimate(NamedTuple):
    """Empirical TCF estimate at one grid lag.

    Unpacks as ``(lag, chi_hat, std_err, ...)``; ``lag`` is the realized
    grid distance actually used for the requested lag.  ``clipped`` flags
    estimates that fell outside [0, 1] before clipping.
    """

    lag: float
    chi_hat: float
    std_err: float
    n: int
    requested_lag: float
    clipped: bool


def estimate_chi(realizations: Iterable[GridField], lags: Iterable[float],
                 *, lag_tol: float | None = None) -> list[LagEstimate]:
    """Estimate the TCF at the given lags from simulated Frechet fields.

    For a simple max-stable pair the maximum ``max(X_s, X_t)`` is Frechet
    with scale ``theta(t - s)``, so its reciprocal is exponential with
    rate ``theta``; the estimator inverts the sample mean of the
    reciprocals at one site pair per lag and reports
    ``chi_hat = 2 - theta_hat`` with the delta-method standard error.

    Each requested lag maps to the site pair whose distance is nearest;
    lags farther than ``lag_tol`` (default half the grid spacing) from any
    realizable distance are skipped with a warning.  A zero lag compares a
    site with itself and yields exactly 1.  Estimates are clipped to
    [0, 1] and flagged.  Requires at least 100 realizations with Frechet
    margins on a common grid.
    """
    fields = list(realizations)
    if len(fields) < 100:
        raise DomainError(
            f"need at least 100 realizations, got {len(fields)}")
    grid = fields[0].grid
    for f in fields:
        if f.margins != "frechet":
            raise DomainError("estimator requires Frechet margins; "
                              "use transform_margins first")
        if f.grid != grid:
            raise DomainError("all realizations must share one grid")
    values = np.stack([f.values.ravel() for f in fields])
    dist = _pairwise_distances(grid.sites())
    tol = 0.5 * grid.spacing if lag_tol is None else float(lag_tol)
    n = len(fields)

    out: list[LagEstimate] = []
    for requested in lags:
        requested = float(requested)
        if requested < 0 or not math.isfinite(requested):
            raise DomainError(f"lags must be finite and >= 0, got {requested!r}")
        gap = np.abs(dist - requested)
        i, j = np.unravel_index(int(np.argmin(gap)), gap.shape)
        if gap[i, j] > tol:
            warnings.warn(
                f"lag {requested} is not realizable on the grid within "
                f"{tol} (nearest distance {dist[i, j]:.6g}); skipped",
                stacklevel=2)
            continue
        realized = float(dist[i, j])
        if realized == 0.0:
            out.append(LagEstimate(0.0, 1.0, 0.0, n, requested, False))
            continue
        reciprocals = 1.0 / np.maximum(values[:, i], values[:, j])
        theta = 1.0 / float(reciprocals.mean())
        std_err = theta * theta * float(reciprocals.std(ddof=1)) / math.sqrt(n)
        raw = 2.0 - theta
        chi = min(1.0, max(0.0, raw))
        out.append(LagEstimate(realized, chi, std_err, n, requested,
                               chi != raw))
    return out
