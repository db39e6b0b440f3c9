"""Command-line surface for :mod:`tailcorr`.

Subcommands
-----------
``eval``
    TCF of a configured model over a lag set -> CSV of (t, chi).
``recover``
    Shape or radius density recovered from a named TCF -> CSV.
``transform``
    Pointwise correlation transforms (R, S, T) of a function -> CSV.
``tb``
    Turning-bands projection of a radial function -> CSV.
``check``
    Membership batteries: text report and optional CSV of verdicts.
``simulate``
    Exact max-stable fields on a regular grid -> CSV (one row per site).
``estimate``
    Empirical TCF from a simulated-fields CSV -> CSV of (lag, chi_hat,
    std_err, n).
``reproduce``
    End-to-end verification suites writing data artifacts plus a summary
    of deviations; exits nonzero when a shipped threshold is exceeded.

Model configuration documents are YAML (JSON parses too).  Parsing is
strict: unknown keys are rejected with a dotted-path address so typos
cannot silently misconfigure a run.  Every CSV starts with a comment
header carrying the tool version, the seed (on the commands that draw
random numbers: ``simulate``, ``check`` and ``reproduce``), and a
fingerprint of the inputs, and uses comma separators, '.' decimals, and
LF line endings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
import sys
from pathlib import Path
from typing import get_type_hints

import click
import numpy as np
import yaml

from . import __version__
from .distributions import Distribution1D, exponential_dist, point_mass
from .errors import ConfigError, DomainError, TailcorrError
from .membership import classify
from .models import _FAMILIES, TcfModel, tcf, tcf_radial
from .operators import (
    TransformSpec,
    TurningBandsSpec,
    apply_transform,
    chi_d_radial,
    phi_d_radial,
    turning_bands,
)
from .presets import (
    REPRODUCTION_SUITES,
    bounded_gauss_correlations,
    erfc_sqrt_mps_mixing,
    erfc_sqrt_radius_law,
    erfc_sqrt_shape,
)
from .radial import (
    Correlation,
    RadialFunction,
    Variogram,
    ball_indicator,
    erfc_sqrt,
    exponential_correlation,
    exponential_decay,
    fbm_variogram,
    bounded_variogram,
    tent,
)
from .recovery import (AtomicAnswer, RecoveryInput, recover_radius_density,
                       recover_shape)
from .simulate import (
    _SIMULABLE,
    GridField,
    GridSpec,
    SimConfig,
    estimate_chi,
    simulate,
    transform_margins,
)

__all__ = ["main", "model_from_doc", "load_model", "resolve_function"]


# ---------------------------------------------------------------------------
# Strict config parsing
# ---------------------------------------------------------------------------


_REQUIRED = object()

#: Most points a lag or grid spec may list.
_MAX_POINTS = 1_000_000

#: Scalar kind -> the document types it accepts and the noun its error uses.
_SCALARS = {
    str: ((str,), "a string"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    list: ((list,), "a list"),
}


def _checked(value: object, kind: type, address: str):
    """``value`` as the scalar ``kind``; booleans are never numbers, and
    numbers are finite."""
    accepted, noun = _SCALARS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"expected {noun}, got {value!r}", address=address)
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"expected a finite number, got {value!r}",
                          address=address)
    return kind(value)


class _Section:
    """A mapping inside a config document with strict key consumption.

    Every key must be taken exactly once; :meth:`close` rejects leftovers
    with the dotted path of the first unknown key.
    """

    def __init__(self, data: object, address: str) -> None:
        if not isinstance(data, dict):
            raise ConfigError("expected a mapping", address=address or "<root>")
        self._data = data
        self._address = address
        self._taken: set[str] = set()

    def _addr(self, key: str) -> str:
        return f"{self._address}.{key}" if self._address else key

    def take(self, key: str, kind, default=_REQUIRED):
        """The value under ``key`` parsed as ``kind``: a scalar kind of
        :data:`_SCALARS`, a field type of :data:`_SECTIONS` (a nested
        section), or a parser ``kind(value, address)``."""
        address = self._addr(key)
        if key not in self._data:
            if default is _REQUIRED:
                raise ConfigError("missing required key", address=address)
            return default
        self._taken.add(key)
        value = self._data[key]
        if kind in _SECTIONS:
            return _build(kind, _Section(value, address))
        if kind in _SCALARS:
            return _checked(value, kind, address)
        return kind(value, address)

    def take_choice(self, key: str, choices: dict):
        """The entry of ``choices`` named by the string under ``key``."""
        name = self.take(key, str)
        if name not in choices:
            raise ConfigError(
                f"expected one of {', '.join(choices)}; got {name!r}",
                address=self._addr(key))
        return choices[name]

    def close(self) -> None:
        unknown = sorted(set(self._data) - self._taken)
        if unknown:
            raise ConfigError(
                f"unknown key {unknown[0]!r} (strict mode rejects "
                "unrecognized parameters)", address=self._addr(unknown[0]))


def _cdf_points(points: object, address: str) -> np.ndarray:
    """Tabulated cdf points [[x, F], ...], checked: x increasing, F
    non-decreasing up to 1."""
    points = _checked(points, list, address)
    try:
        arr = np.array(points, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("expected [[x, F], ...] number pairs",
                          address=address) from None
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ConfigError("expected at least two [x, F] pairs",
                          address=address)
    if not np.isfinite(arr).all():
        raise ConfigError("cdf points must be finite numbers",
                          address=address)
    xs, fs = arr[:, 0], arr[:, 1]
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(fs) < 0):
        raise ConfigError("cdf points must have increasing x and "
                          "non-decreasing F", address=address)
    if abs(fs[-1] - 1.0) > 1e-9 or fs[0] < 0:
        raise ConfigError("cdf must rise to 1", address=address)
    return arr


def _tabulated_cdf_law(points: np.ndarray) -> Distribution1D:
    """The law whose cdf interpolates the points linearly: a piecewise
    constant density, plus an atom at the first x when its F is positive."""
    xs, fs = points[:, 0], points[:, 1]
    slopes = np.diff(fs) / np.diff(xs)

    def cdf(s: float) -> float:
        return float(np.interp(s, xs, fs, left=0.0, right=1.0))

    def pdf(s):
        i = np.searchsorted(xs, s, side="right") - 1
        inside = (i >= 0) & (i < len(slopes))
        return np.where(inside, slopes[np.clip(i, 0, len(slopes) - 1)], 0.0)

    def quantile(q: float) -> float:
        return float(np.interp(q, fs, xs))

    return Distribution1D(
        name="tabulated_cdf",
        cdf=cdf,
        pdf=pdf,
        atoms=((float(xs[0]), float(fs[0])),) if fs[0] > 0 else (),
        support=(float(xs[0]), float(xs[-1])),
        quantile=quantile,
        pdf_points=tuple(float(x) for x in xs[1:-1]),
    )


def _gaussian_correlation(scale: float) -> Correlation:
    return Correlation(f"gaussian(scale={scale:g})",
                       lambda t: np.exp(-(t / scale) ** 2))


#: Config field type -> (the key that names its kind, kind -> (builder,
#: its keys in argument order)).  A key is (name, kind[, default]); its
#: kind is parsed by :meth:`_Section.take`.
_SECTIONS = {
    Distribution1D: ("type", {
        "point_mass": (point_mass, [("value", float)]),
        "exponential": (exponential_dist, [("rate", float, 1.0)]),
        "erfc_sqrt_radius": (erfc_sqrt_radius_law, [("dim", int, 3)]),
        "erfc_sqrt_arctan": (erfc_sqrt_mps_mixing, []),
        "tabulated": (_tabulated_cdf_law, [("points", _cdf_points)]),
    }),
    Correlation: ("type", {
        "exponential": (exponential_correlation, [("scale", float, 1.0)]),
        "gaussian": (_gaussian_correlation, [("scale", float, 1.0)]),
        "bounded_gauss_eg": (lambda: bounded_gauss_correlations()[0], []),
        "bounded_gauss_ebg": (lambda: bounded_gauss_correlations()[1], []),
    }),
    Variogram: ("type", {
        "fbm": (fbm_variogram, [("scale", float), ("alpha", float)]),
        "bounded": (bounded_variogram,
                    [("lambda", float), ("correlation", Correlation)]),
    }),
    RadialFunction: ("name", {
        "erfc_sqrt": (erfc_sqrt_shape, [("dim", int, 3)]),
        "tent": (tent, []),
        "ball": (ball_indicator, [("dim", int), ("radius", float, 1.0)]),
    }),
}


def _build(field_type, section: _Section):
    """The value of a config section of the given field type; a value the
    builder rejects is an error at the section's address."""
    kind_key, kinds = _SECTIONS[field_type]
    builder, keys = section.take_choice(kind_key, kinds)
    try:
        value = builder(*(section.take(*key) for key in keys))
    except DomainError as exc:
        raise ConfigError(str(exc), address=section._address) from exc
    section.close()
    return value


def _config_fields(model_type) -> dict:
    """Config key -> field type: the required init fields of the model
    type, ``dim`` first, in declaration order."""
    hints = get_type_hints(model_type)
    return {f.name: hints[f.name]
            for f in dataclasses.fields(model_type)
            if f.init and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING}


def model_from_doc(data: object) -> TcfModel:
    """Build a model from a parsed config document (strict keys)."""
    root = _Section(data, "")
    model_type = root.take_choice("class", _SIMULABLE)
    parts = {key: root.take(key, field_type)
             for key, field_type in _config_fields(model_type).items()}
    model = model_type(**parts)
    root.close()
    return model


def load_model(path: str) -> tuple[TcfModel, str]:
    """Read a YAML model config; returns (model, fingerprint)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = (f"line {mark.line + 1} column {mark.column + 1}: "
                 if mark is not None else "")
        raise ConfigError(f"{where}not parseable as YAML "
                          f"({getattr(exc, 'problem', exc)})") from exc
    return model_from_doc(data), _fingerprint(data)


# ---------------------------------------------------------------------------
# Function specs, grids, lag lists
# ---------------------------------------------------------------------------

# Function spec head -> (constructor, parsers of its ':'-separated
# parameters, how many of them are required).  The parametric families
# appear under the names of their constructors.
_FUNCTION_SPECS = {
    "erfc_sqrt": (erfc_sqrt, (), 0),
    "exp": (exponential_decay, (float,), 0),
    "tent": (tent, (), 0),
    **{family.constructor.__name__:
       (family.constructor, (float,) * (1 + family.takes_beta),
        1 + family.takes_beta)
       for family in _FAMILIES.values()},
    "phi_d": (phi_d_radial, (int,), 1),
    "chi_d": (chi_d_radial, (int,), 1),
}


def _spec_usage(head: str, constructor, parsers, required: int) -> str:
    names = [f":{name.upper()}" for name
             in inspect.signature(constructor).parameters][:len(parsers)]
    return (head + "".join(names[:required])
            + "".join(f"[{name}]" for name in names[required:]))


_FUNCTION_SPEC_HELP = (
    "named function, optionally with ':'-separated parameters -- "
    + " | ".join(_spec_usage(head, *entry)
                 for head, entry in _FUNCTION_SPECS.items())
    + " -- or @CONFIG.yaml for a model-backed TCF")


def _resolve(spec: str, tol: float) -> tuple[RadialFunction, str]:
    """A function spec's radial function and the key its CSV fingerprint
    digests: the parsed config for an ``@`` spec, the spec otherwise."""
    if spec.startswith("@"):
        model, fingerprint = load_model(spec[1:])
        return (tcf_radial(model, tol=tol, name=f"tcf[{spec[1:]}]"),
                "@" + fingerprint)
    head, *args = spec.split(":")
    entry = _FUNCTION_SPECS.get(head)
    if entry is None or not entry[2] <= len(args) <= len(entry[1]):
        raise ConfigError(
            f"unknown function spec {spec!r}; expected {_FUNCTION_SPEC_HELP}")
    constructor, parsers, _ = entry
    try:
        return constructor(*(parse(arg) for parse, arg
                             in zip(parsers, args))), spec
    except ValueError as exc:
        raise ConfigError(f"bad parameter in function spec {spec!r}: {exc}"
                          ) from exc


def resolve_function(spec: str, *, tol: float = 1e-9) -> RadialFunction:
    """Resolve a CLI function spec to a radial function."""
    return _resolve(spec, tol)[0]


def _parse_grid(spec: str | None) -> np.ndarray:
    """Parse 'lo:hi:n[:log|lin]' (default log-spaced 1e-3..1e2, 200)."""
    if spec is None:
        return np.geomspace(1e-3, 1e2, 200)
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"grid spec {spec!r} is not lo:hi:n[:log|lin]")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid spec {spec!r}: {exc}") from exc
    mode = parts[3] if len(parts) == 4 else "log"
    if mode not in ("log", "lin"):
        raise ConfigError(f"grid mode must be log or lin, got {mode!r}")
    if (not 2 <= n <= _MAX_POINTS or not -math.inf < lo < hi < math.inf
            or (mode == "log" and lo <= 0)):
        raise ConfigError(f"grid spec {spec!r} is not a finite increasing "
                          f"range of 2 to {_MAX_POINTS:,} points")
    return np.geomspace(lo, hi, n) if mode == "log" else np.linspace(lo, hi, n)


def _parse_lags(spec: str) -> list[float]:
    """Parse 'start:stop:step' (stop inclusive) or 'a,b,c'."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"lag spec {spec!r} is not start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"lag spec {spec!r}: {exc}") from exc
        if not (0 < step < math.inf and -math.inf < start <= stop < math.inf
                and (stop - start) / step < _MAX_POINTS):
            raise ConfigError(f"lag spec {spec!r} is not a finite increasing "
                              f"range of at most {_MAX_POINTS:,} lags")
        count = int(round((stop - start) / step))
        lags = [start + k * step for k in range(count + 1)]
        return [lag for lag in lags if lag <= stop + 1e-12]
    try:
        return [float(p) for p in spec.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"lag spec {spec!r}: {exc}") from exc


def _parse_sim_grid(spec: str) -> GridSpec:
    """Parse 'SHAPE@SPACING[@ORIGIN]', e.g. '16@0.5' or '8x8@1@0,0'."""
    parts = spec.split("@")
    if len(parts) not in (2, 3):
        raise ConfigError(f"grid {spec!r} is not SHAPE@SPACING[@ORIGIN]")
    try:
        shape = tuple(int(s) for s in parts[0].split("x"))
        spacing = float(parts[1])
        origin = (tuple(float(c) for c in parts[2].split(","))
                  if len(parts) == 3 else None)
    except ValueError as exc:
        raise ConfigError(f"grid {spec!r}: {exc}") from exc
    return GridSpec(dim=len(shape), shape=shape, spacing=spacing,
                    origin=origin)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fingerprint(obj: object) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _render_csv(columns, rows, *, fingerprint, seed=None, extra=()) -> str:
    """CSV text under its header; ``seed=`` is written when a seed was
    drawn from."""
    drawn = "" if seed is None else f" seed={seed}"
    lines = [f"# tailcorr {__version__}{drawn} fingerprint={fingerprint}"]
    lines.extend(f"# {line}" for line in extra)
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"

def _emit(text: str, out: str | Path | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        click.echo(message, err=True)


# ---------------------------------------------------------------------------
# The command group
# ---------------------------------------------------------------------------


def _output(fn):
    fn = click.option("--quiet", is_flag=True,
                      help="suppress progress messages")(fn)
    fn = click.option("--out", type=click.Path(dir_okay=False), default=None,
                      help="write CSV here instead of stdout")(fn)
    return fn


def _positive_finite(ctx, param, value: float) -> float:
    if not 0.0 < value < math.inf:
        raise click.BadParameter(f"must be positive and finite, got {value!r}")
    return value


def _common(tol_help: str = "numerical tolerance passed to the backend",
            grid_help: str = "evaluation grid"):
    def decorate(fn):
        fn = click.option("--grid", "grid_spec", default=None,
                          metavar="LO:HI:N",
                          help=f"{grid_help} lo:hi:n[:log|lin] "
                               "(default 1e-3:1e2:200:log)")(fn)
        fn = click.option("--tol", type=float, default=1e-9,
                          show_default=True, callback=_positive_finite,
                          help=tol_help)(fn)
        return _output(fn)
    return decorate


#: ``--tol`` of the commands that pass it only to an ``@CONFIG.yaml`` TCF.
_SPEC_TOL_HELP = ("numerical tolerance of the TCF of an @CONFIG.yaml "
                  "FUNCTION; a named FUNCTION does not read it")


#: The option of the commands that draw random numbers.
_seed = click.option("--seed", type=click.IntRange(min=0), default=0,
                     show_default=True,
                     help="seed of the random draws, recorded in the header")


class _Group(click.Group):
    """The command group; a library error ends a command with its message
    and exit status 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except TailcorrError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group,
             context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="tailcorr")
def main() -> None:
    """Tail correlation functions of stationary max-stable processes."""


@main.command("eval")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--lags", "lags_spec", default=None, metavar="SPEC",
              help="lag set 'start:stop:step' (stop inclusive) or 'a,b,c'; "
                   "instead of --grid")
@_common()
def cmd_eval(config, lags_spec, out, tol, grid_spec, quiet):
    """Evaluate the TCF of a configured model -> CSV of (t, chi)."""
    if lags_spec is not None and grid_spec is not None:
        raise click.UsageError("--lags and --grid exclude each other")
    model, fingerprint = load_model(config)
    lags = (_parse_lags(lags_spec) if lags_spec is not None
            else [float(t) for t in _parse_grid(grid_spec)])
    rows = []
    for t in lags:
        try:
            rows.append((t, tcf(model, t, tol=tol)))
        except TailcorrError as exc:
            click.echo(f"eval: chi({t:g}) failed: {exc}", err=True)
            rows.append((t, float("nan")))
    _emit(_render_csv(("t", "chi"), rows, fingerprint=fingerprint,
                      extra=(f"tol={tol!r}",)), out)
    _say(quiet, f"eval: {len(rows)} lags, model {fingerprint}")


@main.command("recover")
@click.argument("function_spec", metavar="FUNCTION")
@click.option("--target", type=click.Choice(["shape", "radius"]),
              required=True, help="shape density f or diameter density k")
@click.option("--d", "dim", type=click.IntRange(1, 3), default=3,
              show_default=True, help="ambient dimension of the inversion")
@_common()
def cmd_recover(function_spec, target, dim, out, tol, grid_spec, quiet):
    """Invert a TCF into its moving-maxima density -> CSV."""
    chi, key = _resolve(function_spec, tol)
    inp = RecoveryInput(chi=chi, dim=dim)
    grid = _parse_grid(grid_spec)
    recover = recover_shape if target == "shape" else recover_radius_density
    values = recover(inp, grid, tol=tol)
    if isinstance(values, AtomicAnswer):
        raise ConfigError("the diameter law has atoms; a density table "
                          "cannot represent it")
    rows = list(zip(grid.tolist(), values.tolist()))
    column = "f" if target == "shape" else "k"
    _emit(_render_csv(("x", column), rows,
                      fingerprint=_fingerprint([key, target, dim]),
                      extra=(f"tol={tol!r}",)), out)
    _say(quiet, f"recover: {target} of {chi.name} in d={dim}")


@main.command("transform")
@click.argument("function_spec", metavar="FUNCTION")
@click.option("--map", "map_name", type=click.Choice(["R", "S", "T"]),
              required=True, help="correlation transform to apply pointwise")
@click.option("--lam", type=float, default=1.0, show_default=True,
              help="lambda parameter of S/T")
@_common(_SPEC_TOL_HELP)
def cmd_transform(function_spec, map_name, lam, out, tol, grid_spec, quiet):
    """Apply a correlation transform to function values -> CSV."""
    f, key = _resolve(function_spec, tol)
    grid = _parse_grid(grid_spec)
    spec = TransformSpec(map_name, lam)
    values = f(grid)
    rows = list(zip(grid.tolist(), values.tolist(),
                    apply_transform(spec, values).tolist()))
    _emit(_render_csv(("t", "value", "transformed"), rows,
                      fingerprint=_fingerprint([key, map_name, lam]),
                      extra=(f"tol={tol!r}",)), out)
    _say(quiet, f"transform: {map_name}_{lam:g} of {f.name}")


@main.command("tb")
@click.argument("function_spec", metavar="FUNCTION")
@click.option("--k", type=int, required=True, help="target dimension")
@click.option("--d", type=int, required=True, help="source dimension")
@_common()
def cmd_tb(function_spec, k, d, out, tol, grid_spec, quiet):
    """Turning-bands projection of a radial function -> CSV."""
    f, key = _resolve(function_spec, tol)
    spec = TurningBandsSpec(k=k, d=d)
    grid = _parse_grid(grid_spec)
    rows = list(zip(grid.tolist(),
                    turning_bands(f, spec, grid, tol=tol).tolist()))
    _emit(_render_csv(("r", f"tb_{k}_{d}"), rows,
                      fingerprint=_fingerprint([key, k, d]),
                      extra=(f"tol={tol!r}",)), out)
    _say(quiet, f"tb: tb_{k}^{d} of {f.name}")


@main.command("check")
@click.argument("function_spec", metavar="FUNCTION")
@click.option("--d", "dim", type=click.IntRange(min=1), default=3,
              show_default=True, help="ambient dimension for the batteries")
@click.option("--max-order", type=click.IntRange(1, 8), default=6,
              show_default=True, help="highest derivative order probed")
@_common(_SPEC_TOL_HELP, "points of T1_MMMr, completely_monotone, "
         "Tinfty_MMMr and H3_condition (the other batteries use their own)")
@_seed
def cmd_check(function_spec, dim, max_order, seed, out, tol, grid_spec,
              quiet):
    """Run the membership batteries on a function -> report (+ CSV)."""
    chi, key = _resolve(function_spec, tol)
    grid = (None if grid_spec is None
            else [float(g) for g in _parse_grid(grid_spec)])
    report = classify(chi, dim, seed=seed, grid=grid, max_order=max_order)
    if out is not None:
        rows = [(name, verdict.status, repr(verdict.witness),
                 report.tolerances.get(name, float("nan")))
                for name, verdict in sorted(report.verdicts.items())]
        _emit(_render_csv(("test", "status", "witness", "tolerance"), rows,
                          seed=seed, fingerprint=_fingerprint([key, dim]),
                          extra=(f"tol={tol!r}",)), out)
    if not quiet:
        click.echo(report.summary())


@main.command("simulate")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--grid", "grid_spec", required=True,
              metavar="SHAPE@SPACING[@ORIGIN]",
              help="grid geometry, e.g. '16@0.5' or '8x8@1@0,0'")
@click.option("--n", "n_realizations", type=click.IntRange(min=1),
              default=100, show_default=True, help="number of realizations")
@click.option("--margins", type=click.Choice(["frechet", "gumbel"]),
              default="frechet", show_default=True,
              help="marginal scale of the written values")
@_output
@_seed
def cmd_simulate(config, grid_spec, n_realizations, margins, seed, out,
                 quiet):
    """Simulate exact max-stable fields -> CSV, one row per site."""
    model, fingerprint = load_model(config)
    grid = _parse_sim_grid(grid_spec)
    sim_config = SimConfig(model=model, grid=grid,
                           n_realizations=n_realizations, seed=seed)
    fields = [transform_margins(realization, margins)
              for realization in simulate(sim_config)]
    _emit(_fields_csv(fields, grid, margins, seed=seed,
                      fingerprint=fingerprint), out)
    _say(quiet, f"simulate: {n_realizations} realizations on "
                f"{'x'.join(str(s) for s in grid.shape)} sites")


def _fields_csv(fields, grid: GridSpec, margins: str, *, seed,
                fingerprint) -> str:
    """Fields as CSV, one row per site, under the '# grid' line that
    :func:`_read_fields_csv` needs to rebuild them."""
    sites = grid.sites()
    rows = [(index, *(float(c) for c in site), float(value))
            for index, field in enumerate(fields)
            for site, value in zip(sites, field.values.ravel())]
    shape = "x".join(str(s) for s in grid.shape)
    origin = ",".join(f"{c:.17g}" for c in grid.origin)
    coords = tuple(f"x{a}" for a in range(grid.dim))
    meta = (f"grid shape={shape} spacing={grid.spacing:.17g} origin={origin} "
            f"margins={margins}",)
    return _render_csv(("realization", *coords, "value"), rows, seed=seed,
                       fingerprint=fingerprint, extra=meta)


def _read_fields_csv(path: str) -> list[GridField]:
    """Read fields written by the simulate subcommand (lossless)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    meta: dict[str, str] = {}
    body: list[str] = []
    for line in lines:
        if line.startswith("# grid "):
            meta = dict(part.split("=", 1)
                        for part in line[len("# grid "):].split())
        elif line and not line.startswith("#"):
            body.append(line)
    if not meta:
        raise ConfigError(f"{path}: missing '# grid' header line")
    shape = tuple(int(s) for s in meta["shape"].split("x"))
    grid = GridSpec(dim=len(shape), shape=shape,
                    spacing=float(meta["spacing"]),
                    origin=tuple(float(c) for c in meta["origin"].split(",")))
    margins = meta.get("margins", "frechet")
    data = body[1:]  # drop the column header
    per_field = grid.n_sites
    if len(data) % per_field != 0:
        raise ConfigError(f"{path}: row count {len(data)} is not a multiple "
                          f"of the {per_field} grid sites")
    fields = []
    for start in range(0, len(data), per_field):
        values = np.array([float(row.split(",")[-1])
                           for row in data[start:start + per_field]])
        fields.append(GridField(grid=grid, values=values.reshape(grid.shape),
                                margins=margins))
    return fields


@main.command("estimate")
@click.argument("fields_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--lags", "lags_spec", required=True, metavar="SPEC",
              help="lag set 'start:stop:step' (stop inclusive) or 'a,b,c'")
@_output
def cmd_estimate(fields_csv, lags_spec, out, quiet):
    """Estimate the TCF from simulated fields -> CSV."""
    digest = hashlib.sha256(Path(fields_csv).read_bytes()).hexdigest()
    fields = [transform_margins(f, "frechet")
              for f in _read_fields_csv(fields_csv)]
    estimates = estimate_chi(fields, _parse_lags(lags_spec))
    rows = [(est.lag, est.chi_hat, est.std_err, est.n) for est in estimates]
    _emit(_render_csv(("lag", "chi_hat", "std_err", "n"), rows,
                      fingerprint=_fingerprint([digest, lags_spec])), out)
    _say(quiet, f"estimate: {len(rows)} lags from {len(fields)} fields")


# ---------------------------------------------------------------------------
# Reproduction suites
# ---------------------------------------------------------------------------


@main.command("reproduce")
@click.argument("suite", type=click.Choice(tuple(REPRODUCTION_SUITES)))
@click.option("--out-dir", "directory", required=True,
              type=click.Path(file_okay=False, path_type=Path),
              help="directory for the generated artifacts")
@click.option("--n", "n_realizations", type=click.IntRange(min=100),
              default=10_000, show_default=True,
              help="realizations per simulated model")
@click.option("--quiet", is_flag=True, help="suppress progress messages")
@_seed
def cmd_reproduce(suite, directory, n_realizations, seed, quiet):
    """Run a verification suite and write its data artifacts.

    Exits nonzero when any deviation exceeds its shipped threshold; the
    chi_hat checks have a threshold per lag and report a summary margin
    (deviation minus threshold, negative when passing).
    """
    directory.mkdir(parents=True, exist_ok=True)
    fingerprint = _fingerprint([suite, seed, n_realizations])

    def write(name: str, columns, rows) -> None:
        _emit(_render_csv(columns, rows, seed=seed, fingerprint=fingerprint),
              directory / name)

    summary = []
    spec = REPRODUCTION_SUITES[suite]()
    for name, check in spec.checks.items():
        rows, worst = check.run()
        write(f"{name}.csv", check.columns, rows)
        if check.threshold is not None:
            summary.append((name, worst, check.threshold))
    for name, model in spec.simulated.items():
        fields = list(simulate(SimConfig(model=model, grid=spec.grid,
                                         n_realizations=n_realizations,
                                         seed=seed)))
        _emit(_fields_csv(fields, spec.grid, "frechet", seed=seed,
                          fingerprint=fingerprint),
              directory / f"fields_{name}.csv")
        rows, worst = spec.chi_hat(model, estimate_chi(fields, spec.lags))
        write(f"chi_hat_{name}.csv", spec.chi_hat_columns, rows)
        summary.append((f"chi_hat_{name}", worst, 0.0))
    rows = [(check, worst, threshold, "pass" if worst <= threshold else "fail")
            for check, worst, threshold in summary]
    failures = [f"{check}: deviation {worst:g}"
                for check, worst, _, status in rows if status == "fail"]
    write("summary.csv", ("check", "max_deviation", "threshold", "status"),
          rows)
    _say(quiet, f"reproduce: {suite} -> {directory} "
                f"({len(rows)} checks, {len(failures)} failed)")
    if failures:
        raise click.ClickException(
            "threshold exceeded -- " + "; ".join(failures))


if __name__ == "__main__":  # pragma: no cover
    main()
