"""Per-layer metrics of the traced run.

Each metric comes from the spans the benchmark wraps around its calls into
one ``tailcorr`` module.  A traced run first takes every metric its own
workload exercises; for the layers that workload leaves alone it then runs
a short fixed probe of that layer, so every traced run reports every
metric.  ``record["layer_source"]`` says which of the two each value came
from.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import catalog
import clirun
import gate
from tracer import OpFailed

#: Realizations per simulated model in the probe's ``reproduce`` runs.
REPRODUCE_N = 300

CANDIDATES = ("erfc_sqrt_d3", "erfc_pow0.4_d1", "cauchy1_d2",
              "erfc_pow0.8_d3", "trunc_pow2_d3", "trunc_pow1.5_d3",
              "tent_d1", "tent_d3")
QUADRATURE_KINDS = ("smooth", "endpoint_singular", "infinite")
RADIAL_FAMILIES = ("erfc_sqrt_shape", "whittle_matern", "truncated_power",
                   "user_callable")

#: name -> unit.  Time units are per unit of work (see ``aggregate``);
#: ``1/s`` is work per second.
PER_LAYER: dict[str, str] = {}
PER_LAYER.update({f"simulate.setup_ms.{c}": "ms" for c in catalog.SIM_CLASSES})
PER_LAYER.update({f"simulate.us_per_field_site.{c}": "us"
                  for c in catalog.SIM_CLASSES})
PER_LAYER["simulate.estimate_chi_ms"] = "ms"
PER_LAYER.update({f"models.tcf_us_per_lag.{t}": "us" for t in catalog.TCF_TYPES})
PER_LAYER.update({f"membership.classify_ms.{c}": "ms" for c in CANDIDATES})
PER_LAYER.update({"membership.positive_definite_ms": "ms",
                  "membership.completely_monotone_ms": "ms",
                  "membership.triangle_ms": "ms",
                  "recovery.recover_shape_us": "us",
                  "recovery.recover_radius_density_us": "us",
                  "recovery.recover_radius_law_ms": "ms",
                  "operators.transform_us": "us",
                  "operators.turning_bands_us": "us",
                  "operators.phi_d_us": "us",
                  "operators.gneiting_c_us": "us",
                  "operators.curvature_scan_ms": "ms"})
PER_LAYER.update({f"numerics.quadrature_us.{k}": "us" for k in QUADRATURE_KINDS})
PER_LAYER.update({"numerics.num_derivative_us": "us",
                  "numerics.erfc_ns_per_point": "ns"})
PER_LAYER.update({f"radial.eval_ns_per_point.{f}": "ns" for f in RADIAL_FAMILIES})
PER_LAYER.update({"distributions.expect_us": "us",
                  "distributions.sample_ns": "ns"})
PER_LAYER.update({f"cli.reproduce_s.{s}": "s" for s in clirun.REPRODUCE_SUITES})
PER_LAYER.update({"cli.csv_write_rows_per_s": "1/s",
                  "cli.csv_read_rows_per_s": "1/s",
                  "cli.cold_start_s": "s",
                  "trace.overhead_s": "s"})

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}


def aggregate(spans: list[dict]) -> dict[str, float]:
    """Time per unit of work (or work per second) for every metric the
    spans feed: total span time over total units, in the metric's unit."""
    seconds: dict[str, float] = {}
    units: dict[str, float] = {}
    for span in spans:
        name = span.get("metric")
        if name not in PER_LAYER or "end" not in span:
            continue
        seconds[name] = seconds.get(name, 0.0) + span["end"] - span["start"]
        units[name] = units.get(name, 0.0) + span["units"]
    out = {}
    for name, total in seconds.items():
        if units[name] <= 0 or total <= 0:
            continue
        unit = PER_LAYER[name]
        out[name] = (units[name] / total if unit == "1/s"
                     else _SCALE[unit] * total / units[name])
    return out


# ---------------------------------------------------------------------------
# The probe: a short fixed exercise of each layer
# ---------------------------------------------------------------------------


def _wants(missing: set[str], prefix: str) -> bool:
    return any(name.startswith(prefix) for name in missing)


def probe_simulate(tc, tr, missing, checks, record, seed, workdir):
    grid = tc.GridSpec(dim=1, shape=(9,), spacing=0.5)
    models = catalog.loop_models(tc)
    for index, (cls, model) in enumerate(models.items()):
        if not (f"simulate.setup_ms.{cls}" in missing
                or f"simulate.us_per_field_site.{cls}" in missing
                or "simulate.estimate_chi_ms" in missing):
            continue
        config = tc.SimConfig(model=model, grid=grid, n_realizations=200,
                              seed=seed + index)
        stream = tr.call("simulate", tc.simulate, config,
                         metric=f"simulate.setup_ms.{cls}")
        with tr.span("simulate", "draw",
                     metric=f"simulate.us_per_field_site.{cls}",
                     units=200 * grid.n_sites):
            fields = list(stream)
        tr.call("simulate", tc.estimate_chi, fields, [0.5, 1.0],
                metric="simulate.estimate_chi_ms")


def probe_models(tc, tr, missing, checks, record, seed, workdir):
    lags = np.geomspace(0.05, 3.0, 8)
    for kind, cases in catalog.tcf_models(tc).items():
        if f"models.tcf_us_per_lag.{kind}" not in missing:
            continue
        # Three of the six (slow) erfc_mixture cases at two lags each.
        mixture = kind == "erfc_mixture"
        for model, _, reference, tol in cases[::2] if mixture else cases[:1]:
            count = 2 if mixture else len(lags)
            values = tr.call("models", tc.tcf, model, lags[:count],
                             metric=f"models.tcf_us_per_lag.{kind}",
                             units=count)
            gap = float(np.max(np.abs(values - reference(lags[:count]))))
            checks.add(f"probe tcf {kind}", gap <= tol, f"{gap:.3g}")


def probe_membership(tc, tr, missing, checks, record, seed, workdir):
    for name, (chi, d, expected) in catalog.candidates(tc).items():
        if f"membership.classify_ms.{name}" not in missing:
            continue
        report = tr.call("membership", tc.classify, chi, d,
                         metric=f"membership.classify_ms.{name}")
        refuted = {k for k, v in report.verdicts.items() if v.failed}
        checks.add(f"probe classify {name}", refuted == expected,
                   str(sorted(refuted)))
    if "membership.positive_definite_ms" in missing:
        verdict = tr.call("membership", tc.test_positive_definite,
                          tc.truncated_power(2.0), 3, n_configs=50,
                          n_points=8, metric="membership.positive_definite_ms")
        checks.add("probe positive definite", verdict.status == "pass")
    if "membership.completely_monotone_ms" in missing:
        verdict = tr.call("membership", tc.test_completely_monotone,
                          tc.powered_erfc(0.4),
                          metric="membership.completely_monotone_ms")
        checks.add("probe completely monotone", verdict.status == "pass")
    if "membership.triangle_ms" in missing:
        verdict = tr.call("membership", tc.test_triangle, tc.erfc_sqrt(),
                          metric="membership.triangle_ms")
        checks.add("probe triangle", verdict.status == "pass")


def probe_recovery(tc, tr, missing, checks, record, seed, workdir):
    import criteria
    from tailcorr.recovery import (RecoveryInput, recover_radius_density,
                                   recover_shape)
    inp = RecoveryInput(chi=tc.erfc_sqrt(), dim=3)
    for u in np.geomspace(0.05, 5.0, 10):
        tr.call("recovery", recover_shape, inp, float(u),
                metric="recovery.recover_shape_us")
        tr.call("recovery", recover_radius_density, inp, float(u),
                metric="recovery.recover_radius_density_us")
    ok, detail = criteria.radius_law(tc, tr)
    checks.add("probe radius law", ok, detail)


def probe_operators(tc, tr, missing, checks, record, seed, workdir):
    from tailcorr.operators import implied_br_curvature_min
    for x in np.linspace(0.05, 0.95, 50):
        tr.call("operators", tc.transform_S, 1.62, float(x),
                metric="operators.transform_us")
        tr.call("operators", tc.phi_d, float(x) * 2.0, 3,
                metric="operators.phi_d_us")
    spec = tc.TurningBandsSpec(k=1, d=3)
    for r in (0.5, 1.0, 2.0, 4.0):
        tr.call("operators", tc.turning_bands, tc.tent(), spec, r,
                metric="operators.turning_bands_us")
        tr.call("operators", tc.gneiting_c, r, 3,
                metric="operators.gneiting_c_us")
    if "operators.curvature_scan_ms" in missing:
        location, _ = tr.call("operators", implied_br_curvature_min, 1e-4,
                              10.0, metric="operators.curvature_scan_ms")
        checks.add("probe curvature scan", 1e-4 < location < 10.0)


def probe_numerics(tc, tr, missing, checks, record, seed, workdir):
    cases = {
        "smooth": ((lambda x: math.exp(-x) * math.cos(x), 0.0, 2.0), {},
                   0.5 * (1.0 + math.exp(-2.0) * (math.sin(2.0)
                                                  - math.cos(2.0)))),
        "endpoint_singular": ((lambda x: x ** -0.5 * math.exp(-x), 0.0, 1.0),
                              {"singular_exponent_a": -0.5},
                              math.sqrt(math.pi) * math.erf(1.0)),
        "infinite": ((lambda x: math.exp(-x * x), 0.0, math.inf), {},
                     0.5 * math.sqrt(math.pi)),
    }
    for kind, (args, kwargs, exact) in cases.items():
        worst = 0.0
        for _ in range(50):
            res = tr.call("numerics", tc.quadrature, *args, **kwargs,
                          metric=f"numerics.quadrature_us.{kind}")
            worst = max(worst, abs(res.value - exact))
        checks.add(f"probe quadrature {kind}", worst <= 1e-9, f"{worst:.3g}")
    worst = 0.0
    for x in np.linspace(0.1, 2.0, 50):
        res = tr.call("numerics", tc.num_derivative, math.sin, float(x), 2,
                      metric="numerics.num_derivative_us")
        worst = max(worst, abs(res.value + math.sin(float(x))))
    checks.add("probe num_derivative", worst <= 1e-6, f"{worst:.3g}")
    from scipy.special import erfc
    xs = np.linspace(0.0, 5.0, 100_000)
    for _ in range(5):
        got = tr.call("numerics", tc.erfc, xs,
                      metric="numerics.erfc_ns_per_point", units=xs.size)
    checks.add("probe erfc", float(np.max(np.abs(got - erfc(xs)))) <= 1e-15)


def probe_radial(tc, tr, missing, checks, record, seed, workdir):
    from tailcorr import presets
    radii = np.linspace(1e-3, 5.0, 10_000)
    functions = {
        "erfc_sqrt_shape": presets.erfc_sqrt_shape(3),
        "whittle_matern": tc.whittle_matern(0.5),
        "truncated_power": tc.truncated_power(2.0),
        "user_callable": tc.radial_from_callable("user_exp",
                                                 lambda r: math.exp(-r)),
    }
    for family, f in functions.items():
        for _ in range(2):
            got = tr.call("radial", f, radii,
                          metric=f"radial.eval_ns_per_point.{family}",
                          units=radii.size)
        want = np.array([f.func(float(r)) for r in radii[::997]])
        checks.add(f"probe radial {family}",
                   np.array_equal(got[::997], want))


def probe_distributions(tc, tr, missing, checks, record, seed, workdir):
    from tailcorr import presets
    law = presets.erfc_sqrt_radius_law(3)
    for _ in range(5):
        mass = tr.call("distributions", law.expect, lambda r: 1.0,
                       metric="distributions.expect_us").value
    checks.add("probe expect", abs(mass - 1.0) <= 1e-8, f"{mass!r}")
    mixing = presets.erfc_sqrt_mps_mixing()
    rng = np.random.default_rng(seed)
    draws = 2000
    with tr.span("distributions", "sample", metric="distributions.sample_ns",
                 units=draws):
        values = [mixing.sample(rng, 1)[0] for _ in range(draws)]
    checks.add("probe sample support", min(values) >= 0.5 * math.pi)


def _in_process(tr, checks, args: list[str]) -> bool:
    """``tailcorr <args>`` in this process; a usage or library error counts
    as a failed operation."""
    import click

    from tailcorr.cli import main as cli_main
    with tr.span("cli", args[0]):
        try:
            cli_main.main(args, standalone_mode=False)
        except click.ClickException as exc:
            tr.count_failure(f"in-process {args[0]}: {exc.format_message()}")
            checks.add(f"probe in-process {args[0]}", False,
                       exc.format_message())
            return False
    return True


def probe_cli(tc, tr, missing, checks, record, seed, workdir):
    """Cold start and both ``reproduce`` suites in fresh processes, then
    the ``simulate`` -> ``estimate`` CSV round trip in process."""
    here = workdir / "probe-cli"
    here.mkdir(parents=True, exist_ok=True)
    command = clirun.run_cli(tr, ["--version"], cwd=here,
                             metric="cli.cold_start_s")
    checks.add("tailcorr --version", command.returncode == 0)
    notes = record.setdefault("cli", {"exits": {}, "false_alarm_exits": []})
    rows = []
    for suite in clirun.REPRODUCE_SUITES:
        out_dir = here / suite
        command = clirun.run_cli(
            tr, ["reproduce", suite, "--out-dir", str(out_dir), "--n",
                 str(REPRODUCE_N), "--seed", str(seed), "--quiet"], cwd=here,
            metric=f"cli.reproduce_s.{suite}")
        result = clirun.judge_suite(suite, out_dir, command.returncode, suite)
        notes["exits"][suite] = command.returncode
        if result.false_alarm:
            notes["false_alarm_exits"].append(suite)
        if not result.ok:
            tr.count_failure(f"reproduce {suite} exit {command.returncode}: "
                             f"{command.stderr[-300:]}")
        checks.add(f"reproduce {suite} wrote its tables", not result.missing,
                   ", ".join(result.missing))
        checks.add(f"reproduce {suite} deterministic rows pass",
                   not result.deterministic_failures,
                   "; ".join(result.deterministic_failures))
        rows += result.chi_rows
    verdict = gate.judge_z(rows)
    checks.add("chi gate over the reproduce rows", verdict.passed,
               verdict.describe())
    notes["gate"] = verdict.describe()

    # CSV write and read, in process: the median simulate and estimate
    # commands minus the median library calls they wrap, for the same
    # config and seed.  The CSVs must hold exactly what the library gives.
    (here / "br.yaml").write_text(clirun.BR_YAML, encoding="utf-8")
    n, grid = 400, tc.GridSpec(dim=1, shape=(9,), spacing=0.5)
    config = tc.SimConfig(model=tc.BRModel(dim=1, variogram=tc.fbm_variogram(
        8.0, 1.0)), grid=grid, n_realizations=n, seed=seed)
    out, estimate = here / "fields.csv", here / "estimate.csv"
    times: dict[str, list[float]] = {"lib_sim": [], "cli_sim": [],
                                     "lib_est": [], "cli_est": []}

    def timed(key, step):
        start = time.perf_counter()
        result = step()
        times[key].append(time.perf_counter() - start)
        return result

    def simulate_all():
        return list(tc.simulate(config))

    ok = True
    for _ in range(3):
        fields = timed("lib_sim", lambda: tr.call("simulate", simulate_all))
        ok &= timed("cli_sim", lambda: _in_process(tr, checks, [
            "simulate", str(here / "br.yaml"), "--grid", "9@0.5", "--n",
            str(n), "--seed", str(seed), "--quiet", "--out", str(out)]))
        mine = timed("lib_est", lambda: tr.call(
            "simulate", tc.estimate_chi, fields, [0.5, 1.0]))
        ok &= timed("cli_est", lambda: _in_process(tr, checks, [
            "estimate", str(out), "--lags", "0.5,1", "--quiet",
            "--out", str(estimate)]))
    if ok:
        written = np.array([float(r["value"]) for r in clirun.read_csv(out)])
        checks.add("simulate CSV equals the library's fields", np.array_equal(
            written, np.concatenate([f.values.ravel() for f in fields])))
        theirs = clirun.read_csv(estimate)
        checks.add("estimate CSV equals estimate_chi on the same fields",
                   [(float(r["chi_hat"]), float(r["std_err"])) for r in theirs]
                   == [(e.chi_hat, e.std_err) for e in mine])
    notes["csv_digest"] = {str(path.relative_to(here)): clirun.digest(path)
                           for path in sorted(here.rglob("*.csv"))}
    shutil.rmtree(here, ignore_errors=True)
    if not ok:
        return {}
    rows_written = n * grid.n_sites
    med = {key: statistics.median(values) for key, values in times.items()}
    return {"cli.csv_write_rows_per_s":
            rows_written / max(med["cli_sim"] - med["lib_sim"], 1e-6),
            "cli.csv_read_rows_per_s":
            rows_written / max(med["cli_est"] - med["lib_est"], 1e-6)}


PROBES = (("simulate.", probe_simulate), ("models.", probe_models),
          ("membership.", probe_membership), ("recovery.", probe_recovery),
          ("operators.", probe_operators), ("numerics.", probe_numerics),
          ("radial.", probe_radial), ("distributions.", probe_distributions),
          ("cli.", probe_cli))


def run_probes(tc, tracer, missing: set[str], checks, record: dict,
               seed: int, workdir: Path) -> dict[str, float]:
    """Probe every layer with a metric in ``missing``; returns the metrics
    a probe computes directly rather than from spans."""
    direct: dict[str, float] = {}
    for prefix, probe in PROBES:
        if not _wants(missing, prefix):
            continue
        try:
            direct.update(probe(tc, tracer, missing, checks, record, seed,
                                workdir) or {})
        except OpFailed as exc:
            checks.add(f"probe {prefix.rstrip('.')}", False, f"raised {exc}")
    return direct
