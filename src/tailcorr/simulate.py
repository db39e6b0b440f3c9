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

The per-class ingredient is the storm profile relative to its value at
the conditioning site, drawn from the profile law size-biased by that
value.  Each model class that can be simulated states it in its
``_profile_sampler`` method (see :mod:`tailcorr.models`); the classes
without one are rejected with the list of those that have one.

Covariance factors are taken from the symmetric eigendecomposition with
small negative eigenvalues clipped, so degenerate but valid inputs (for
example a correlation identically one) simulate correctly; genuinely
indefinite inputs raise :class:`~tailcorr.errors.SimulationError` carrying
the minimum eigenvalue.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, get_args

import numpy as np

from .errors import DomainError, SimulationError
from .models import TcfModel, _pairwise_distances, _ProfileDraw

__all__ = [
    "GridSpec",
    "GridField",
    "SimConfig",
    "LagEstimate",
    "simulate",
    "transform_margins",
    "estimate_chi",
]

#: Storm candidates a realization may examine per grid site before the
#: enumeration gives up.  Exact enumeration examines one per site on
#: average (Dombry, Engelke & Oesting 2016), so only a model whose profile
#: law is inconsistent with its margins comes near this.
_STORMS_PER_SITE = 1_000

#: Class tag -> model type, for every member of TcfModel that carries a
#: size-biased profile sampler.
_SIMULABLE = {cls.__name__.removesuffix("Model"): cls
              for cls in get_args(TcfModel)
              if hasattr(cls, "_profile_sampler")}

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
class SimConfig:
    """Full description of one simulation run."""

    model: TcfModel
    grid: GridSpec
    n_realizations: int
    seed: int

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


# ---------------------------------------------------------------------------
# The exact engine
# ---------------------------------------------------------------------------


def _simulate_one(draw: _ProfileDraw, n_sites: int,
                  rng: np.random.Generator) -> np.ndarray:
    """One exact realization by per-site extremal-function enumeration."""
    values = np.zeros(n_sites)
    budget = _STORMS_PER_SITE * n_sites
    spent = 0
    for k in range(n_sites):
        arrival = rng.exponential()
        while 1.0 / arrival > values[k]:
            if spent == budget:
                raise SimulationError(
                    f"storm budget exhausted at site {k}: {spent} "
                    f"candidates examined, the budget of {_STORMS_PER_SITE} "
                    f"per site for {n_sites} sites")
            spent += 1
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
    indefinite covariances, with the minimum eigenvalue attached, and for
    a realization that examines more than ``_STORMS_PER_SITE`` storm
    candidates per site.
    """
    if not hasattr(config.model, "_profile_sampler"):
        raise DomainError(
            f"simulation is not supported for {type(config.model).__name__}; "
            f"supported classes: {', '.join(_SIMULABLE)}")
    sites = config.grid.sites()
    draw = config.model._profile_sampler(sites)
    children = np.random.SeedSequence(config.seed).spawn(config.n_realizations)

    def stream() -> Iterator[GridField]:
        for child in children:
            rng = np.random.default_rng(child)
            values = _simulate_one(draw, len(sites), rng)
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
