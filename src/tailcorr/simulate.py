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
without one are rejected with the list of those that have one.  A drawn
profile is evaluated on demand.  Most candidates are rejected at a
finished site near the conditioning one, so for a class with a partial
profile on a large grid the engine first evaluates a candidate at the
``_SCREEN_SITES`` nearest finished sites and rejects it there when it
exceeds the field.  The partial values never exceed the whole profile's,
so the screen rejects only what the full check rejects, and the random
stream and the output bits are those of the unscreened enumeration.

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
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DomainError, SimulationError
from .models import TcfModel, _pairwise_distances, _ProfileDraw
from .numerics import _integer, _is_integer

__all__ = [
    "GridSpec",
    "GridField",
    "SimConfig",
    "LagEstimate",
    "ThetaEstimate",
    "simulate",
    "transform_margins",
    "estimate_chi",
    "estimate_theta",
]

#: Storm candidates a realization may examine per grid site before the
#: enumeration gives up.  Exact enumeration examines one per site on
#: average (Dombry, Engelke & Oesting 2016), so only a model whose profile
#: law is inconsistent with its margins comes near this.
_STORMS_PER_SITE = 1_000

#: Finished sites at which a storm candidate is screened before its whole
#: profile is evaluated: the ones nearest to the site being enumerated,
#: where most rejections show.  BR on a 32 x 32 grid took a median 269,
#: 245, 243 and 244 ms per field with 4, 8, 16 and 32 sites (one core of a
#: shared 2-core x86-64 host with OpenBLAS).
_SCREEN_SITES = 8

#: Grids from this many sites screen the candidates of a class with a
#: partial profile (``_PARTIAL_PROFILE``: BR, VBR, EG, EBG, whose whole
#: profile is a dense matrix-vector product).  On smaller grids the screen
#: costs more than it saves.  Median us per field and site, screened /
#: unscreened, one core of a shared 2-core x86-64 host with OpenBLAS: at 256
#: sites in 1-D, BR 83/52 and EG 62/49; at 512 sites in 1-D, BR 196/184 and
#: EG 95/171; on 23 x 23, BR 131/193 and EG 78/175.  The moving-maxima and
#: storm classes evaluate a whole profile about as fast as a screen.
_SCREEN_FROM_SITES = 512

#: Class tag -> model type, for every model class (a subclass of
#: TcfModel) that carries a size-biased profile sampler.
_SIMULABLE = {cls.__name__.removesuffix("Model"): cls
              for cls in TcfModel.__subclasses__()
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
        object.__setattr__(self, "dim", _integer(self.dim, "grid dim", 1, 2))
        sizes = np.atleast_1d(self.shape)
        if (len(sizes) != self.dim
                or not all(_is_integer(n) and n >= 1 for n in sizes)):
            raise DomainError(f"grid shape {self.shape!r} is not {self.dim} "
                              f"positive integer sizes")
        shape = tuple(int(n) for n in sizes)
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
        object.__setattr__(self, "n_realizations", _integer(
            self.n_realizations, "n_realizations", 1))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
        if not isinstance(self.grid, GridSpec):
            raise DomainError("grid must be a GridSpec")


# ---------------------------------------------------------------------------
# The exact engine
# ---------------------------------------------------------------------------


def _nearest_earlier(grid: GridSpec, q: int) -> np.ndarray:
    """Row k lists the q sites before site k in row-major order that lie
    nearest to it, ties to the lower index; rows 0..q are unused (-1).

    Grid distances depend only on the index offsets (di, dj), so the
    offsets to earlier sites are ordered once, and each site takes the
    first q that stay on the grid.  The work after the first q offsets is
    confined to the sites near the start and the edges of the grid, and
    nothing grows with more than the site count times q.
    """
    n_rows, n_cols = (1, grid.shape[0]) if grid.dim == 1 else grid.shape
    m = n_rows * n_cols
    di, dj = np.meshgrid(np.arange(1 - n_rows, 1),
                         np.arange(1 - n_cols, n_cols), indexing="ij")
    di, dj = di.ravel(), dj.ravel()
    step = di * n_cols + dj
    earlier = step < 0
    di, dj, step = di[earlier], dj[earlier], step[earlier]
    row, col = np.divmod(np.arange(m), n_cols)
    near = np.full((m, q), -1, dtype=np.intp)
    count = np.zeros(m, dtype=np.intp)
    todo = np.arange(q + 1, m)
    for o in np.lexsort((step, di * di + dj * dj)):
        r, c = row[todo] + di[o], col[todo] + dj[o]
        hit = todo[(r >= 0) & (c >= 0) & (c < n_cols)]
        near[hit, count[hit]] = hit + step[o]
        count[hit] += 1
        todo = todo[count[todo] < q]
        if not todo.size:
            break
    return near


def _simulate_one(draw: _ProfileDraw, n_sites: int,
                  rng: np.random.Generator,
                  near: np.ndarray | None = None) -> np.ndarray:
    """One exact realization by per-site extremal-function enumeration.

    A candidate at site k > ``_SCREEN_SITES`` is first screened at the
    finished sites ``near[k]``: a value above the field there rejects it
    before its whole profile is evaluated.  A screened value never exceeds
    the profile's, so the screen rejects only candidates that the full
    check rejects, and the field keeps its bits.
    """
    values = np.zeros(n_sites)
    budget = _STORMS_PER_SITE * n_sites
    spent = 0
    for k in range(n_sites):
        screen = near[k] if near is not None and k > _SCREEN_SITES else None
        arrival = rng.exponential()
        while 1.0 / arrival > values[k]:
            if spent == budget:
                raise SimulationError(
                    f"storm budget exhausted at site {k}: {spent} "
                    f"candidates examined, the budget of {_STORMS_PER_SITE} "
                    f"per site for {n_sites} sites")
            spent += 1
            profile = draw(k, rng)
            if screen is None or not (
                    profile(screen) / arrival > values[screen]).any():
                candidate = profile() / arrival
                if (candidate[:k] <= values[:k]).all():
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
    screens = (config.model._PARTIAL_PROFILE
               and len(sites) >= _SCREEN_FROM_SITES
               and len(sites) > _SCREEN_SITES)
    near = _nearest_earlier(config.grid, _SCREEN_SITES) if screens else None
    children = np.random.SeedSequence(config.seed).spawn(config.n_realizations)

    def stream() -> Iterator[GridField]:
        for child in children:
            rng = np.random.default_rng(child)
            values = _simulate_one(draw, len(sites), rng, near)
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


class ThetaEstimate(NamedTuple):
    """Empirical extremal coefficient of one set of grid sites.

    ``sites`` are indices into ``values.ravel()`` of the fields (the order
    of :meth:`GridSpec.sites`).  ``theta`` is not clipped to [1, |S|].
    """

    sites: tuple[int, ...]
    theta: float
    std_err: float
    n: int


def _frechet_values(realizations: Iterable[GridField]
                    ) -> tuple[GridSpec, np.ndarray]:
    """The common grid and the values stacked as ``(n, sites)`` of at least
    100 realizations with Frechet margins."""
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
    return grid, np.stack([f.values.ravel() for f in fields])


def _theta(values: np.ndarray, site_sets: list[tuple[int, ...]]
           ) -> tuple[np.ndarray, np.ndarray]:
    """Extremal coefficients of column sets of Frechet values ``(n, sites)``
    and their delta-method standard errors.

    For a simple max-stable vector, ``max over S of X_s`` is Frechet with
    scale ``theta(S)``, so its reciprocal is exponential with rate
    ``theta(S)``: the estimate inverts the sample mean of the reciprocals.
    A set of one distinct site gives exactly 1 with error 0.  Each set's
    reciprocals are reduced as one contiguous row, so a pair gets the bits
    of the 1-D reductions of its own reciprocals.
    """
    reciprocals = np.empty((len(site_sets), values.shape[0]))
    for row, sites in zip(reciprocals, site_sets):
        row[:] = 1.0 / np.maximum.reduce(values[:, sites], axis=1)
    theta = 1.0 / reciprocals.mean(axis=1)
    std_err = (theta * theta * reciprocals.std(axis=1, ddof=1)
               / math.sqrt(values.shape[0]))
    single = np.array([len(set(sites)) == 1 for sites in site_sets], bool)
    theta[single] = 1.0
    std_err[single] = 0.0
    return theta, std_err


def _site_set(sites, n_sites: int) -> tuple[int, ...]:
    """A nonempty set of site indices as a tuple of ints."""
    try:
        indices = tuple(sites)
    except TypeError:
        indices = ()
    if not indices or not all(_is_integer(k) and 0 <= k < n_sites
                              for k in indices):
        raise DomainError(f"site set {sites!r} is not a nonempty collection "
                          f"of integer site indices in [0, {n_sites})")
    return tuple(int(k) for k in indices)


def estimate_theta(realizations: Iterable[GridField],
                   site_sets: Iterable[Iterable[int]]) -> list[ThetaEstimate]:
    """Estimate the extremal coefficient of each site set from simulated
    Frechet fields.

    ``theta(S)`` is the scale of ``max over S of X_s``: 1 for sites that
    always take one value, ``|S|`` for independent ones.  The estimate is
    ``1 / mean(1 / max over S of X_s)`` with the delta-method standard
    error, unclipped; a set of one distinct site gives exactly 1 with
    error 0.  Sites are indices into ``values.ravel()`` (the order of
    :meth:`GridSpec.sites`).  Requires at least 100 realizations with
    Frechet margins on a common grid.
    """
    grid, values = _frechet_values(realizations)
    sets = [_site_set(sites, grid.n_sites) for sites in site_sets]
    theta, std_err = _theta(values, sets)
    return [ThetaEstimate(sites, float(t), float(e), len(values))
            for sites, t, e in zip(sets, theta, std_err)]


def estimate_chi(realizations: Iterable[GridField], lags: Iterable[float],
                 *, lag_tol: float | None = None) -> list[LagEstimate]:
    """Estimate the TCF at the given lags from simulated Frechet fields.

    This is the pair case of :func:`estimate_theta`: each requested lag
    maps to the site pair whose distance is nearest, and the estimate is
    ``chi_hat = 2 - theta_hat`` of that pair with the delta-method standard
    error.  Lags farther than ``lag_tol`` (default half the grid spacing;
    it must be finite and >= 0) from any realizable distance are skipped
    with a warning.  A zero lag compares a site with itself and yields
    exactly 1.  Estimates are clipped to [0, 1] and flagged.  Requires at
    least 100 realizations with Frechet margins on a common grid.
    """
    grid, values = _frechet_values(realizations)
    tol = 0.5 * grid.spacing if lag_tol is None else float(lag_tol)
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"lag_tol must be finite and >= 0, got {lag_tol!r}")
    dist = _pairwise_distances(grid.sites())

    kept: list[tuple[float, int, int]] = []
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
        kept.append((requested, int(i), int(j)))

    theta, std_err = _theta(values, [(i, j) for _, i, j in kept])
    out: list[LagEstimate] = []
    for (requested, i, j), t, e in zip(kept, theta, std_err):
        raw = 2.0 - float(t)
        chi = min(1.0, max(0.0, raw))
        out.append(LagEstimate(float(dist[i, j]), chi, float(e), len(values),
                               requested, chi != raw))
    return out
