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
profile is evaluated on demand, on a run of consecutive sites outside
which it is 0: the whole grid for most classes, and for the bounded
storms of M3b and MPS only the sites that the ball or interval can reach
(a site's first coordinate never decreases in row-major order, so they
form one run).  A candidate is checked against the finished sites of its
run and taken into the field there.  Most candidates are rejected at a
finished site near the conditioning one, so for a class with a partial
profile on a large grid the engine first evaluates a candidate at the
``_SCREEN_SITES`` nearest finished sites and rejects it there when it
exceeds the field.  The partial values never exceed the whole profile's,
so the screen rejects only what the full check rejects, and the random
stream and the output bits are those of the unscreened enumeration.

The random stream is fixed per realization.  Realization i draws from its
own generator, child i of ``SeedSequence(seed)``, and in one order: at
each site the first storm arrival, then for each candidate the draws of
its class's ``draw(k, rng)`` (a mixing law through
``Distribution1D.sample_one``) and the next arrival.  A field therefore
depends only on the seed and its index, whatever is drawn before, after
or between it.  The children are computed in blocks of ``_SEED_BLOCK`` as
the stream reaches them, not spawned up front: one vectorized pass of
``SeedSequence``'s own hash gives the words with which PCG64 seeds itself
from each child of the block, bit for bit, so a stream holds one block
and its memory does not grow with the number of realizations.

Covariance factors are taken from the symmetric eigendecomposition with
small negative eigenvalues clipped, so degenerate but valid inputs (for
example a correlation identically one) simulate correctly; genuinely
indefinite inputs raise :class:`~tailcorr.errors.SimulationError` carrying
the minimum eigenvalue.  The dense set-up of BR, VBR, EG and EBG on n
sites builds each n x n matrix once and in place: at its peak, while
``np.linalg.eigh`` runs, about 5 n^2 floats are alive (the covariance or
correlation matrix, eigh's copy of it, its 2 n^2 workspace and the
eigenvectors), and 2 n^2 are kept for the run (the factor and the
covariance or correlation rows).  BR and VBR keep per-site drift or tilt
rows in the covariance's buffer: row k less its diagonal entry, and for
VBR less the half-variance differences, formed in place one row at a
time.  At the cap of 2,000 sites the peak is about 160 MB.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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

#: Most grid sites a simulation takes.  Exact enumeration examines about
#: one storm per site and each whole profile costs O(sites), so a
#: realization costs O(sites^2); far larger grids would also allocate
#: their site coordinates before anything else could refuse them.
_MAX_SITES = 2 ** 20

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
#: EG 95/171; on 23 x 23, BR 131/193 and EG 78/175.  M2r evaluates a
#: whole profile about as fast as a screen, and the bounded storms of M3b
#: and MPS evaluate only the run of sites their ball or interval can
#: reach, so those classes are not screened.
_SCREEN_FROM_SITES = 512

#: Children of a stream's ``SeedSequence`` whose seeding words are computed
#: in one pass, as the stream reaches them.
_SEED_BLOCK = 4096

#: The constants of ``SeedSequence``'s hash (NumPy's ``bit_generator.pyx``,
#: whose streams NEP 19 keeps stable): ``mix_entropy`` mixes the entropy
#: into a pool of four 32-bit words, and ``generate_state`` hashes the
#: pool into the requested words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4

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
        for axis, (start, n) in enumerate(zip(origin, shape)):
            # The last site of the axis, in the arithmetic of :meth:`sites`.
            if not math.isfinite(start + spacing * (n - 1)):
                raise DomainError(
                    f"grid axis {axis} overflows: its last site "
                    f"{start!r} + {spacing!r} * {n - 1} is not finite")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def n_sites(self) -> int:
        return math.prod(self.shape)

    def _check_extent(self) -> None:
        """Refuse a grid whose squared extent, the sum over axes of (last
        site - first site)^2, is not finite.  That is the greatest squared
        distance between two sites in the arithmetic of the set-up's
        ``_pairwise_distances`` (rounding is monotone), so every squared
        distance is finite exactly when it is."""
        total = 0.0
        for start, n in zip(self.origin, self.shape):
            span = (start + self.spacing * (n - 1)) - start
            total += span * span
        if not math.isfinite(total):
            raise DomainError(
                f"grid extent overflows: its squared extent, the sum over "
                f"axes of (spacing * (n - 1))^2, is not finite for spacing "
                f"{self.spacing!r} and shape {self.shape}, so distances "
                f"between its sites cannot be squared")

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
        # Two reductions and no temporary array: NaN propagates through
        # both, so every value is finite exactly when the least and the
        # greatest are, and positive exactly when the least is.
        low = np.minimum.reduce(vals, axis=None)
        high = np.maximum.reduce(vals, axis=None)
        if not (math.isfinite(low) and math.isfinite(high)):
            raise DomainError("field values must be finite")
        if self.margins == "frechet" and not low > 0:
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


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words, least significant first, into which
    ``SeedSequence`` splits the nonnegative int ``n`` (``[0]`` for 0)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _child_words(seed: int, start: int, stop: int) -> np.ndarray:
    """Row i - start is ``SeedSequence(seed, spawn_key=(i,))
    .generate_state(4, np.uint64)``, the words with which PCG64 seeds
    itself from child i of ``SeedSequence(seed)``, for i in [start, stop).

    NumPy's hash runs on all the rows at once: each 32-bit word of the
    pool is a Python int while it depends on the seed only and a uint64
    array of one entry per row once a spawn key word is mixed in, and
    every product of two 32-bit words is taken in 64 bits and masked.  The
    hash multipliers follow a fixed sequence, the same for every row.  A
    key i takes one word below 2^32 and more above, so the rows are split
    where i crosses a multiple of 2^32; within a piece the key's first
    word is an array and its others are ints.
    """
    entropy = _uint32_words(seed)
    # With a spawn key, SeedSequence pads the seed's words to the pool.
    entropy += [0] * (_POOL_SIZE - len(entropy))
    out = np.empty((stop - start, 4), dtype=np.uint64)
    piece = start
    while piece < stop:
        high, low = divmod(piece, 2 ** 32)
        end = min(stop, (high + 1) * 2 ** 32)
        key = [np.arange(low, low + end - piece, dtype=np.uint64)]
        if high:
            key += _uint32_words(high)
        out[piece - start:end - start] = _hash_words(entropy + key)
        piece = end
    return out


def _hash_words(entropy: list) -> np.ndarray:
    """``mix_entropy`` of the entropy words (ints or uint64 arrays of one
    length), then ``generate_state(4, np.uint64)`` of the pool, as NumPy's
    ``SeedSequence`` computes them; an (n, 4) array for arrays of n."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state: eight 32-bit words from the pool in cycle, paired
    # little-endian into four 64-bit ones.
    const, state = _INIT_B, []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    return np.stack([state[i] | state[i + 1] << 32 for i in range(0, 8, 2)],
                    axis=-1)


class _ChildSeed(ISeedSequence):
    """The seeding words of one child, computed by :func:`_child_words`:
    PCG64 asks its seed sequence for ``generate_state(4, np.uint64)`` and
    seeds itself from them, exactly as from the child itself."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a child's seeding words are 4 uint64 words")
        return self.words


def _simulate_one(draw: _ProfileDraw, n_sites: int,
                  rng: np.random.Generator,
                  near: np.ndarray | None = None) -> np.ndarray:
    """One exact realization by per-site extremal-function enumeration.

    A candidate at site k > ``_SCREEN_SITES`` is first screened at the
    finished sites ``near[k]``: a value above the field there rejects it
    before its whole profile is evaluated.  A screened value never exceeds
    the profile's, so the screen rejects only candidates that the full
    check rejects, and the field keeps its bits.  A profile is checked
    against the finished sites and taken into the field on its run of
    sites only: it is 0 elsewhere, which neither exceeds nor raises the
    field.
    """
    values = np.zeros(n_sites)
    budget = _STORMS_PER_SITE * n_sites
    spent = 0
    exponential, count = rng.exponential, np.count_nonzero
    for k in range(n_sites):
        screen = near[k] if near is not None and k > _SCREEN_SITES else None
        top = values.item(k)
        arrival = exponential()
        while 1.0 / arrival > top:
            if spent == budget:
                raise SimulationError(
                    f"storm budget exhausted at site {k}: {spent} "
                    f"candidates examined, the budget of {_STORMS_PER_SITE} "
                    f"per site for {n_sites} sites")
            spent += 1
            profile = draw(k, rng)
            if screen is None or not count(
                    profile(screen) / arrival > values[screen]):
                start, candidate = profile()
                candidate /= arrival
                # The profile's run of sites, whose first k - start are
                # finished.  Counting the sites where the candidate stays
                # at or below the field rejects a NaN ratio there, as an
                # ``all`` of the comparisons would.
                run = values[start:start + len(candidate)]
                seen = k - start
                if seen <= 0 or count(candidate[:seen] <= run[:seen]) == seen:
                    np.maximum(run, candidate, out=run)
                    top = values.item(k)
            arrival += exponential()
    return values


def simulate(config: SimConfig) -> Iterator[GridField]:
    """Stream exact realizations of the configured max-stable process.

    Yields ``config.n_realizations`` fields with standard Frechet margins
    (use :func:`transform_margins` for Gumbel).  Realizations are
    independent: realization i draws from child i of
    ``SeedSequence(config.seed)`` alone, in the fixed order of the module
    docstring, so the stream is bit-reproducible, realization i of a
    stream of n equals realization i of a longer one, and streams may be
    interleaved or regenerated in any order.  The children are computed
    in blocks as the stream advances, so its memory does not grow with
    ``n_realizations``.

    Raises :class:`~tailcorr.errors.DomainError` for unsupported model
    classes or grids (more than ``_MAX_SITES`` sites; a squared extent
    that is not finite; Poisson storms require d = 1; Gaussian classes
    cap the site count) and
    :class:`~tailcorr.errors.SimulationError` for indefinite covariances,
    with the minimum eigenvalue attached, and for a realization that
    examines more than ``_STORMS_PER_SITE`` storm candidates per site.
    """
    if not hasattr(config.model, "_profile_sampler"):
        raise DomainError(
            f"simulation is not supported for {type(config.model).__name__}; "
            f"supported classes: {', '.join(_SIMULABLE)}")
    if config.grid.n_sites > _MAX_SITES:
        raise DomainError(f"grid has {config.grid.n_sites} sites, more than "
                          f"the {_MAX_SITES} a simulation takes")
    config.grid._check_extent()
    sites = config.grid.sites()
    draw = config.model._profile_sampler(sites)
    screens = (config.model._PARTIAL_PROFILE
               and len(sites) >= _SCREEN_FROM_SITES
               and len(sites) > _SCREEN_SITES)
    near = _nearest_earlier(config.grid, _SCREEN_SITES) if screens else None
    n, seed = config.n_realizations, config.seed

    def stream() -> Iterator[GridField]:
        for start in range(0, n, _SEED_BLOCK):
            for words in _child_words(seed, start, min(n, start + _SEED_BLOCK)):
                rng = np.random.Generator(np.random.PCG64(_ChildSeed(words)))
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
    gap = np.empty_like(dist)

    kept: list[tuple[float, int, int]] = []
    for requested in lags:
        requested = float(requested)
        if requested < 0 or not math.isfinite(requested):
            raise DomainError(f"lags must be finite and >= 0, got {requested!r}")
        np.abs(np.subtract(dist, requested, out=gap), out=gap)
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
