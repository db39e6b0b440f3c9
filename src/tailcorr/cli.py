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
header carrying the tool version, the seed, and a fingerprint of the
inputs, and uses comma separators, '.' decimals, and LF line endings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import get_type_hints

import click
import numpy as np
import yaml

from . import __version__
from .distributions import Distribution1D, exponential_dist, point_mass
from .errors import ConfigError, TailcorrError
from .membership import classify
from .models import BRModel, MPSModel, TcfModel, tcf
from .numerics import erfc
from .operators import (
    TurningBandsSpec,
    chi_d_radial,
    phi_d_radial,
    transform_R,
    transform_S,
    transform_T,
    turning_bands,
)
from .presets import (
    bounded_gauss_chi,
    bounded_gauss_correlations,
    bounded_gauss_lambda,
    bounded_gauss_models,
    erfc_sqrt_diameter_density,
    erfc_sqrt_models_1d,
    erfc_sqrt_mps_mixing,
    erfc_sqrt_radius_law,
    erfc_sqrt_shape,
)
from .radial import (
    Correlation,
    RadialFunction,
    Variogram,
    ball_indicator,
    correlation_from_callable,
    erfc_sqrt,
    exponential_correlation,
    exponential_decay,
    fbm_variogram,
    bounded_variogram,
    generalized_cauchy,
    powered_erfc,
    powered_exponential,
    radial_from_callable,
    tent,
    truncated_power,
    whittle_matern,
)
from .recovery import RecoveryInput, recover_radius_density, recover_shape
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

    def _get(self, key: str, default):
        if key not in self._data:
            if default is not _REQUIRED:
                return default
            raise ConfigError("missing required key", address=self._addr(key))
        self._taken.add(key)
        return self._data[key]

    def take_str(self, key: str, *, choices: tuple[str, ...] | None = None,
                 default=None) -> str:
        value = self._get(key, _REQUIRED if default is None else default)
        if value is default and key not in self._taken:
            return value
        if not isinstance(value, str):
            raise ConfigError(f"expected a string, got {value!r}",
                              address=self._addr(key))
        if choices is not None and value not in choices:
            raise ConfigError(
                f"expected one of {', '.join(choices)}; got {value!r}",
                address=self._addr(key))
        return value

    def take_float(self, key: str, *, default=_REQUIRED) -> float:
        value = self._get(key, default)
        if value is default and key not in self._taken:
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"expected a number, got {value!r}",
                              address=self._addr(key))
        return float(value)

    def take_int(self, key: str, *, default=_REQUIRED) -> int:
        value = self._get(key, default)
        if value is default and key not in self._taken:
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"expected an integer, got {value!r}",
                              address=self._addr(key))
        return int(value)

    def take_section(self, key: str) -> "_Section":
        return _Section(self._get(key, _REQUIRED), self._addr(key))

    def take_list(self, key: str) -> tuple[list, str]:
        value = self._get(key, _REQUIRED)
        if not isinstance(value, list):
            raise ConfigError(f"expected a list, got {value!r}",
                              address=self._addr(key))
        return value, self._addr(key)

    def close(self) -> None:
        unknown = sorted(set(self._data) - self._taken)
        if unknown:
            raise ConfigError(
                f"unknown key {unknown[0]!r} (strict mode rejects "
                "unrecognized parameters)", address=self._addr(unknown[0]))


def _tabulated_cdf_law(points: list, address: str) -> Distribution1D:
    """A law given by tabulated cdf points [[x, F], ...], interpolated."""
    try:
        arr = np.array(points, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("expected [[x, F], ...] number pairs",
                          address=address) from None
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ConfigError("expected at least two [x, F] pairs",
                          address=address)
    xs, fs = arr[:, 0], arr[:, 1]
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(fs) < 0):
        raise ConfigError("cdf points must have increasing x and "
                          "non-decreasing F", address=address)
    if abs(fs[-1] - 1.0) > 1e-9 or fs[0] < 0:
        raise ConfigError("cdf must rise to 1", address=address)

    def cdf(s: float) -> float:
        return float(np.interp(s, xs, fs, left=0.0, right=1.0))

    def quantile(q: float) -> float:
        return float(np.interp(q, fs, xs))

    return Distribution1D(
        name="tabulated_cdf",
        cdf=cdf,
        support=(float(xs[0]), float(xs[-1])),
        quantile=quantile,
    )


def _distribution_from(section: _Section) -> Distribution1D:
    kind = section.take_str("type", choices=(
        "point_mass", "exponential", "erfc_sqrt_radius", "erfc_sqrt_arctan",
        "tabulated"))
    if kind == "point_mass":
        dist = point_mass(section.take_float("value"))
    elif kind == "exponential":
        dist = exponential_dist(section.take_float("rate", default=1.0))
    elif kind == "erfc_sqrt_radius":
        dist = erfc_sqrt_radius_law(section.take_int("dim", default=3))
    elif kind == "erfc_sqrt_arctan":
        dist = erfc_sqrt_mps_mixing()
    else:
        points, address = section.take_list("points")
        dist = _tabulated_cdf_law(points, address)
    section.close()
    return dist


def _correlation_from(section: _Section):
    kind = section.take_str("type", choices=(
        "exponential", "gaussian", "bounded_gauss_eg", "bounded_gauss_ebg"))
    if kind == "exponential":
        corr = exponential_correlation(section.take_float("scale", default=1.0))
    elif kind == "gaussian":
        scale = section.take_float("scale", default=1.0)
        corr = correlation_from_callable(
            f"gaussian(scale={scale:g})",
            lambda t, s=scale: math.exp(-(t / s) ** 2))
    elif kind == "bounded_gauss_eg":
        corr = bounded_gauss_correlations()[0]
    else:
        corr = bounded_gauss_correlations()[1]
    section.close()
    return corr


def _variogram_from(section: _Section):
    kind = section.take_str("type", choices=("fbm", "bounded"))
    if kind == "fbm":
        vario = fbm_variogram(section.take_float("scale"),
                              section.take_float("alpha"))
    else:
        lam = section.take_float("lambda")
        corr = _correlation_from(section.take_section("correlation"))
        vario = bounded_variogram(lam, corr)
    section.close()
    return vario


def _shape_from(section: _Section) -> RadialFunction:
    name = section.take_str("name", choices=("erfc_sqrt", "tent", "ball"))
    if name == "erfc_sqrt":
        shape = erfc_sqrt_shape(section.take_int("dim", default=3))
    elif name == "tent":
        shape = tent()
    else:
        shape = ball_indicator(section.take_int("dim"),
                               section.take_float("radius", default=1.0))
    section.close()
    return shape


#: Config field type -> the parser of its section.
_FIELD_PARSERS = {
    RadialFunction: _shape_from,
    Distribution1D: _distribution_from,
    Variogram: _variogram_from,
    Correlation: _correlation_from,
}


def _config_fields(model_type) -> dict:
    """Config key -> section parser: the required fields of the model type
    other than ``dim``, in declaration order."""
    hints = get_type_hints(model_type)
    return {f.name: _FIELD_PARSERS[hints[f.name]]
            for f in dataclasses.fields(model_type)
            if f.name != "dim" and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING}


def model_from_doc(data: object) -> TcfModel:
    """Build a model from a parsed config document (strict keys)."""
    root = _Section(data, "")
    model_type = _SIMULABLE[root.take_str("class", choices=tuple(_SIMULABLE))]
    dim = root.take_int("dim")
    parts = {key: parse(root.take_section(key))
             for key, parse in _config_fields(model_type).items()}
    model = model_type(dim=dim, **parts)
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

_FUNCTION_SPEC_HELP = (
    "named function, optionally with ':'-separated parameters -- "
    "erfc_sqrt | powered_erfc:NU | exp[:SCALE] | tent | truncated_power:NU | "
    "powered_exponential:NU | whittle_matern:NU | generalized_cauchy:NU:BETA "
    "| phi_d:D | chi_d:D -- or @CONFIG.yaml for a model-backed TCF"
)


def resolve_function(spec: str, *, tol: float = 1e-9) -> RadialFunction:
    """Resolve a CLI function spec to a radial function."""
    if spec.startswith("@"):
        model, _ = load_model(spec[1:])
        return radial_from_callable(
            f"tcf[{spec[1:]}]", lambda t: tcf(model, float(t), tol=tol))
    head, *args = spec.split(":")
    try:
        if head == "erfc_sqrt" and not args:
            return erfc_sqrt()
        if head == "tent" and not args:
            return tent()
        if head == "exp" and len(args) <= 1:
            return exponential_decay(float(args[0]) if args else 1.0)
        if head == "powered_erfc" and len(args) == 1:
            return powered_erfc(float(args[0]))
        if head == "powered_exponential" and len(args) == 1:
            return powered_exponential(float(args[0]))
        if head == "truncated_power" and len(args) == 1:
            return truncated_power(float(args[0]))
        if head == "whittle_matern" and len(args) == 1:
            return whittle_matern(float(args[0]))
        if head == "generalized_cauchy" and len(args) == 2:
            return generalized_cauchy(float(args[0]), float(args[1]))
        if head == "phi_d" and len(args) == 1:
            return phi_d_radial(int(args[0]))
        if head == "chi_d" and len(args) == 1:
            return chi_d_radial(int(args[0]))
    except ValueError as exc:
        raise ConfigError(f"bad parameter in function spec {spec!r}: {exc}"
                          ) from exc
    raise ConfigError(
        f"unknown function spec {spec!r}; expected {_FUNCTION_SPEC_HELP}")


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
    if n < 2 or lo >= hi or (mode == "log" and lo <= 0):
        raise ConfigError(f"grid spec {spec!r} is not an increasing range")
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
        if step <= 0 or stop < start:
            raise ConfigError(f"lag spec {spec!r} is not an increasing range")
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


def _render_csv(columns, rows, *, seed, fingerprint, extra=()) -> str:
    lines = [f"# tailcorr {__version__} seed={seed} fingerprint={fingerprint}"]
    lines.extend(f"# {line}" for line in extra)
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"

def _emit(text: str, out: str | None) -> None:
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


def _common(fn):
    fn = click.option("--quiet", is_flag=True,
                      help="suppress progress messages")(fn)
    fn = click.option("--grid", "grid_spec", default=None, metavar="LO:HI:N",
                      help="evaluation grid lo:hi:n[:log|lin] "
                           "(default 1e-3:1e2:200:log)")(fn)
    fn = click.option("--tol", type=float, default=1e-9, show_default=True,
                      help="numerical tolerance passed to the backend")(fn)
    fn = click.option("--out", type=click.Path(dir_okay=False), default=None,
                      help="write CSV here instead of stdout")(fn)
    fn = click.option("--seed", type=click.IntRange(min=0), default=0,
                      show_default=True, help="seed recorded in the header "
                      "and used by stochastic backends")(fn)
    return fn


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="tailcorr")
def main() -> None:
    """Tail correlation functions of stationary max-stable processes."""


def _fail(exc: TailcorrError) -> "click.ClickException":
    return click.ClickException(str(exc))


@main.command("eval")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--lags", "lags_spec", default=None, metavar="SPEC",
              help="lag set 'start:stop:step' (stop inclusive) or 'a,b,c'; "
                   "defaults to --grid")
@_common
def cmd_eval(config, lags_spec, seed, out, tol, grid_spec, quiet):
    """Evaluate the TCF of a configured model -> CSV of (t, chi)."""
    try:
        model, fingerprint = load_model(config)
        lags = (_parse_lags(lags_spec) if lags_spec is not None
                else [float(t) for t in _parse_grid(grid_spec)])
    except TailcorrError as exc:
        raise _fail(exc)
    rows = []
    for t in lags:
        try:
            rows.append((t, tcf(model, t, tol=tol, seed=seed)))
        except TailcorrError as exc:
            click.echo(f"eval: chi({t:g}) failed: {exc}", err=True)
            rows.append((t, float("nan")))
    _emit(_render_csv(("t", "chi"), rows, seed=seed, fingerprint=fingerprint),
          out)
    _say(quiet, f"eval: {len(rows)} lags, model {fingerprint}")


@main.command("recover")
@click.argument("function_spec", metavar="FUNCTION")
@click.option("--target", type=click.Choice(["shape", "radius"]),
              required=True, help="shape density f or diameter density k")
@click.option("--d", "dim", type=click.IntRange(1, 3), default=3,
              show_default=True, help="ambient dimension of the inversion")
@_common
def cmd_recover(function_spec, target, dim, seed, out, tol, grid_spec, quiet):
    """Invert a TCF into its moving-maxima density -> CSV."""
    try:
        chi = resolve_function(function_spec, tol=tol)
        inp = RecoveryInput(chi=chi, dim=dim)
        grid = _parse_grid(grid_spec)
        rows = []
        for x in grid:
            if target == "shape":
                rows.append((float(x), recover_shape(inp, float(x), tol=tol)))
            else:
                value = recover_radius_density(inp, float(x), tol=tol)
                if not isinstance(value, float):
                    raise ConfigError(
                        "the diameter law has atoms; a density table cannot "
                        "represent it")
                rows.append((float(x), value))
    except TailcorrError as exc:
        raise _fail(exc)
    column = "f" if target == "shape" else "k"
    _emit(_render_csv(("x", column), rows, seed=seed,
                      fingerprint=_fingerprint([function_spec, target, dim])),
          out)
    _say(quiet, f"recover: {target} of {chi.name} in d={dim}")


@main.command("transform")
@click.argument("function_spec", metavar="FUNCTION")
@click.option("--map", "map_name", type=click.Choice(["R", "S", "T"]),
              required=True, help="correlation transform to apply pointwise")
@click.option("--lam", type=float, default=1.0, show_default=True,
              help="lambda parameter of S/T")
@_common
def cmd_transform(function_spec, map_name, lam, seed, out, tol, grid_spec,
                  quiet):
    """Apply a correlation transform to function values -> CSV."""
    try:
        f = resolve_function(function_spec, tol=tol)
        grid = _parse_grid(grid_spec)
        rows = []
        for t in grid:
            x = float(f(float(t)))
            if map_name == "R":
                y = transform_R(x)
            elif map_name == "S":
                y = transform_S(lam, x)
            else:
                y = transform_T(lam, x)
            rows.append((float(t), x, y))
    except TailcorrError as exc:
        raise _fail(exc)
    _emit(_render_csv(("t", "value", "transformed"), rows, seed=seed,
                      fingerprint=_fingerprint([function_spec, map_name, lam])),
          out)
    _say(quiet, f"transform: {map_name}_{lam:g} of {f.name}")


@main.command("tb")
@click.argument("function_spec", metavar="FUNCTION")
@click.option("--k", type=int, required=True, help="target dimension")
@click.option("--d", type=int, required=True, help="source dimension")
@_common
def cmd_tb(function_spec, k, d, seed, out, tol, grid_spec, quiet):
    """Turning-bands projection of a radial function -> CSV."""
    try:
        f = resolve_function(function_spec, tol=tol)
        spec = TurningBandsSpec(k=k, d=d)
        grid = _parse_grid(grid_spec)
        rows = [(float(r), turning_bands(f, spec, float(r), tol=tol))
                for r in grid]
    except TailcorrError as exc:
        raise _fail(exc)
    _emit(_render_csv(("r", f"tb_{k}_{d}"), rows, seed=seed,
                      fingerprint=_fingerprint([function_spec, k, d])), out)
    _say(quiet, f"tb: tb_{k}^{d} of {f.name}")


@main.command("check")
@click.argument("function_spec", metavar="FUNCTION")
@click.option("--d", "dim", type=click.IntRange(min=1), default=3,
              show_default=True, help="ambient dimension for the batteries")
@click.option("--max-order", type=click.IntRange(1, 8), default=6,
              show_default=True, help="highest derivative order probed")
@_common
def cmd_check(function_spec, dim, max_order, seed, out, tol, grid_spec,
              quiet):
    """Run the membership batteries on a function -> report (+ CSV)."""
    try:
        chi = resolve_function(function_spec, tol=tol)
        grid = (None if grid_spec is None
                else [float(g) for g in _parse_grid(grid_spec)])
        report = classify(chi, dim, seed=seed, grid=grid, max_order=max_order)
    except TailcorrError as exc:
        raise _fail(exc)
    if out is not None:
        rows = [(name, verdict.status, repr(verdict.witness),
                 report.tolerances.get(name, float("nan")))
                for name, verdict in sorted(report.verdicts.items())]
        _emit(_render_csv(("test", "status", "witness", "tolerance"), rows,
                          seed=seed,
                          fingerprint=_fingerprint([function_spec, dim])),
              out)
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
@click.option("--quiet", is_flag=True, help="suppress progress messages")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="write CSV here instead of stdout")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True, help="simulation seed")
def cmd_simulate(config, grid_spec, n_realizations, margins, seed, out,
                 quiet):
    """Simulate exact max-stable fields -> CSV, one row per site."""
    try:
        model, fingerprint = load_model(config)
        grid = _parse_sim_grid(grid_spec)
        sim_config = SimConfig(model=model, grid=grid,
                               n_realizations=n_realizations, seed=seed)
        fields = [transform_margins(realization, margins)
                  for realization in simulate(sim_config)]
    except TailcorrError as exc:
        raise _fail(exc)
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
@_common
def cmd_estimate(fields_csv, lags_spec, seed, out, tol, grid_spec, quiet):
    """Estimate the TCF from simulated fields -> CSV."""
    try:
        fields = _read_fields_csv(fields_csv)
        fields = [transform_margins(f, "frechet") for f in fields]
        estimates = estimate_chi(fields, _parse_lags(lags_spec))
    except TailcorrError as exc:
        raise _fail(exc)
    rows = [(est.lag, est.chi_hat, est.std_err, est.n) for est in estimates]
    _emit(_render_csv(("lag", "chi_hat", "std_err", "n"), rows, seed=seed,
                      fingerprint=_fingerprint([fields_csv, lags_spec])), out)
    _say(quiet, f"estimate: {len(rows)} lags from {len(fields)} fields")


# ---------------------------------------------------------------------------
# Reproduction suites
# ---------------------------------------------------------------------------


def _suite_write(out_dir: Path, name: str, columns, rows, seed,
                 fingerprint) -> None:
    (out_dir / name).write_text(
        _render_csv(columns, rows, seed=seed, fingerprint=fingerprint),
        encoding="utf-8", newline="\n")


def _simulation_loop(out_dir: Path, models, lags, *, n, seed, fingerprint):
    """Simulate each model on 9 sites, write its fields and chi-hat CSVs,
    and return the summary rows of the chi-hat checks."""
    grid = GridSpec(dim=1, shape=(9,), spacing=0.5)
    summary = []
    for name, model in models.items():
        fields = list(simulate(SimConfig(model=model, grid=grid,
                                         n_realizations=n, seed=seed)))
        _emit(_fields_csv(fields, grid, "frechet", seed=seed,
                          fingerprint=fingerprint),
              str(out_dir / f"fields_{name}.csv"))
        rows, worst = _chi_hat_rows(model, estimate_chi(fields, lags))
        _suite_write(out_dir, f"chi_hat_{name}.csv",
                     ("lag", "chi_hat", "std_err", "n", "chi", "deviation",
                      "threshold", "status"), rows, seed, fingerprint)
        summary.append((f"chi_hat_{name}", worst, 0.0))
    return summary


def _chi_hat_rows(model, estimates):
    rows = []
    worst = -math.inf
    for est in estimates:
        true = tcf(model, est.lag)
        threshold = max(0.02, 3.0 * est.std_err)
        gap = abs(est.chi_hat - true)
        rows.append((est.lag, est.chi_hat, est.std_err, est.n, true, gap,
                     threshold, "pass" if gap <= threshold else "fail"))
        worst = max(worst, gap - threshold)
    return rows, worst


def _reproduce_erfc_sqrt(out_dir: Path, seed: int, n: int):
    """chi(t) = erfc(sqrt t): recovery closed forms, storm Laplace check,
    and the simulation loop for BR / M2r / M3b."""
    fingerprint = _fingerprint(["erfc-sqrt", seed, n])
    summary = []

    ts = np.geomspace(1e-3, 1e2, 200)
    _suite_write(out_dir, "chi.csv", ("t", "chi"),
                 [(float(t), float(erfc(math.sqrt(t)))) for t in ts],
                 seed, fingerprint)

    chi = erfc_sqrt()
    inp = RecoveryInput(chi=chi, dim=3)
    shape_closed = erfc_sqrt_shape(3)
    xs = np.geomspace(1e-2, 1e1, 100)
    rows, worst = [], 0.0
    for u in xs:
        got = recover_shape(inp, float(u))
        want = float(shape_closed(float(u)))
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        rows.append((float(u), got, want, rel))
    _suite_write(out_dir, "shape_recovery.csv",
                 ("u", "recovered", "closed_form", "rel_deviation"),
                 rows, seed, fingerprint)
    summary.append(("shape_recovery", worst, 1e-6))

    diameter_closed = erfc_sqrt_diameter_density(3)
    rows, worst = [], 0.0
    for s in xs:
        got = recover_radius_density(inp, float(s))
        want = float(diameter_closed(float(s)))
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        rows.append((float(s), got, want, rel))
    _suite_write(out_dir, "radius_recovery.csv",
                 ("s", "recovered", "closed_form", "rel_deviation"),
                 rows, seed, fingerprint)
    summary.append(("radius_recovery", worst, 1e-6))

    storm = MPSModel(dim=2, mixing=erfc_sqrt_mps_mixing())
    rows, worst = [], 0.0
    for t in np.linspace(0.05, 5.0, 60):
        got = tcf(storm, float(t), tol=1e-10)
        want = float(erfc(math.sqrt(t)))
        gap = abs(got - want)
        worst = max(worst, gap)
        rows.append((float(t), got, want, gap))
    _suite_write(out_dir, "mps_laplace.csv",
                 ("t", "laplace_transform", "erfc_sqrt", "deviation"),
                 rows, seed, fingerprint)
    summary.append(("mps_laplace", worst, 1e-6))

    one_d = erfc_sqrt_models_1d()
    models = {"BR": BRModel(dim=1, variogram=fbm_variogram(8.0, 1.0)),
              "M2r": one_d["M2r"], "M3b": one_d["M3b"]}
    summary += _simulation_loop(out_dir, models, [0.5, 1.0, 1.5, 2.0], n=n,
                                seed=seed, fingerprint=fingerprint)
    return summary, fingerprint


def _reproduce_bounded_gauss(out_dir: Path, seed: int, n: int):
    """chi(t) = erfc(0.45 sqrt(1 - e^{-t})): transform identities and the
    simulation loop for EG / EBG / BR."""
    fingerprint = _fingerprint(["bounded-gauss", seed, n])
    summary = []
    lam = bounded_gauss_lambda()
    rho_eg, rho_ebg = bounded_gauss_correlations()
    target = bounded_gauss_chi()

    ts = np.geomspace(1e-3, 1e2, 200)
    for name, transform, closed in (("rho_eg", transform_S, rho_eg),
                                    ("rho_ebg", transform_T, rho_ebg)):
        rows, worst = [], 0.0
        for t in ts:
            got = transform(lam, math.exp(-float(t)))
            want = float(closed(float(t)))
            gap = abs(got - want)
            worst = max(worst, gap)
            rows.append((float(t), got, want, gap))
        _suite_write(out_dir, f"{name}.csv",
                     ("t", "transformed", "closed_form", "deviation"),
                     rows, seed, fingerprint)
        summary.append((name, worst, 1e-12))

    models = bounded_gauss_models(dim=1)
    rows, worst = [], 0.0
    for t in ts:
        want = target(float(t))
        values = [tcf(models[name], float(t)) for name in ("BR", "EG", "EBG")]
        gap = max(abs(v - want) for v in values)
        worst = max(worst, gap)
        rows.append((float(t), *values, want, gap))
    _suite_write(out_dir, "tcf_agreement.csv",
                 ("t", "chi_br", "chi_eg", "chi_ebg", "target", "deviation"),
                 rows, seed, fingerprint)
    summary.append(("tcf_agreement", worst, 1e-12))

    summary += _simulation_loop(
        out_dir, {name: models[name] for name in ("EG", "EBG", "BR")},
        [0.5, 1.0, 2.0], n=n, seed=seed, fingerprint=fingerprint)
    return summary, fingerprint


@main.command("reproduce")
@click.argument("suite", type=click.Choice(["erfc-sqrt", "bounded-gauss"]))
@click.option("--out-dir", type=click.Path(file_okay=False), required=True,
              help="directory for the generated artifacts")
@click.option("--n", "n_realizations", type=click.IntRange(min=100),
              default=10_000, show_default=True,
              help="realizations per simulated model")
@click.option("--quiet", is_flag=True, help="suppress progress messages")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True, help="simulation seed")
def cmd_reproduce(suite, out_dir, n_realizations, seed, quiet):
    """Run a verification suite and write its data artifacts.

    Exits nonzero when any deviation exceeds its shipped threshold; the
    chi_hat checks use max(0.02, 3 std errs) per lag and report a summary
    margin (deviation minus threshold, negative when passing).
    """
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    try:
        if suite == "erfc-sqrt":
            summary, fingerprint = _reproduce_erfc_sqrt(
                directory, seed, n_realizations)
        else:
            summary, fingerprint = _reproduce_bounded_gauss(
                directory, seed, n_realizations)
    except TailcorrError as exc:
        raise _fail(exc)
    rows = []
    failures = []
    for check, worst, threshold in summary:
        if threshold > 0:
            status = "pass" if worst <= threshold else "fail"
            rows.append((check, worst, threshold, status))
        else:
            # chi_hat rows carry per-lag thresholds; 'worst' is the margin.
            status = "pass" if worst <= 0 else "fail"
            rows.append((check, worst, 0.0, status))
        if status == "fail":
            failures.append(f"{check}: deviation {worst:g}")
    _suite_write(directory, "summary.csv",
                 ("check", "max_deviation", "threshold", "status"), rows,
                 seed, fingerprint)
    _say(quiet, f"reproduce: {suite} -> {directory} "
                f"({len(rows)} checks, {len(failures)} failed)")
    if failures:
        raise click.ClickException(
            "threshold exceeded -- " + "; ".join(failures))


if __name__ == "__main__":  # pragma: no cover
    main()
