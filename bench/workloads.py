"""The three workloads.  README.md next to this file says why each exists
and which metrics each optimisation should move on it.

A workload is driven in three phases: ``setup`` (builds models and opens
the simulation streams; timed as set-up), then ``round`` repeatedly (one
fixed unit of work each; timed as wall), then ``finish`` (correctness
checks and digests; not timed).  All inputs derive from the workload seed,
and every call into ``tailcorr`` goes through the tracer, so it is counted.
"""

from __future__ import annotations

import hashlib
import time
from itertools import islice

import numpy as np

import catalog
import criteria
import gate
from tracer import OpFailed


def sub_seed(seed: int, *keys: int) -> int:
    """A seed for one stream of the run, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def values_digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8")
                          .tobytes()).hexdigest()


class Simulation:
    """One ``simulate`` stream per class, drawn from in rounds of
    ``per_round[cls]`` realizations; a fresh stream (with its own seed) is
    opened every ``rounds_per_stream`` rounds.  The first streams are
    opened at set-up, later ones inside the round that needs them."""

    name = ""
    per_round: dict[str, int] = {}
    rounds_per_stream = 1

    def build(self, tc) -> dict:
        raise NotImplementedError

    def grid(self, tc):
        raise NotImplementedError

    def setup(self, tc, seed, tracer, workdir):
        self.tc = tc
        self.seed = seed
        self.spec = self.grid(tc)
        with tracer.span("models", "build"):
            self.models = self.build(tc)
        self.values = {cls: [] for cls in self.models}
        self.open_streams(0, tracer)

    def open_streams(self, index, tracer):
        self.streams = {}
        for number, (cls, model) in enumerate(self.models.items()):
            config = self.tc.SimConfig(
                model=model, grid=self.spec,
                n_realizations=self.per_round[cls] * self.rounds_per_stream,
                seed=sub_seed(self.seed, number, index))
            try:
                self.streams[cls] = tracer.call(
                    "simulate", self.tc.simulate, config,
                    metric=f"simulate.setup_ms.{cls}")
            except OpFailed:
                pass

    @property
    def fields_per_round(self) -> int:
        return sum(self.per_round.values())

    def round(self, index, tracer) -> bool:
        """Draw one batch per class; False when no class could draw."""
        if index and index % self.rounds_per_stream == 0:
            self.open_streams(index, tracer)
        for cls, stream in list(self.streams.items()):
            n = self.per_round[cls]
            try:
                with tracer.span("simulate", "draw",
                                 metric=f"simulate.us_per_field_site.{cls}",
                                 units=n * self.spec.n_sites):
                    fields = list(islice(stream, n))
            except OpFailed:
                del self.streams[cls]  # a generator that raised is closed
                continue
            values = np.stack([f.values.ravel() for f in fields])
            self.values[cls].append(values)
            self.after_draw(cls, fields, tracer)
        return bool(self.streams)

    def after_draw(self, cls, fields, tracer) -> None:
        pass

    def finish(self, checks, record, tracer) -> None:
        margin_rows, biased_rows = [], []
        record["fields"] = {}
        record["field_digest"] = {}
        for cls in self.models:
            if not self.values[cls]:
                checks.add(f"{cls} simulated", False, "no realizations")
                continue
            pooled = np.concatenate(self.values[cls])
            record["fields"][cls] = len(pooled)
            record["field_digest"][cls] = values_digest(self.values[cls][0])
            checks.add(f"{cls} Frechet values",
                       bool(np.all(np.isfinite(pooled)) and np.all(pooled > 0)))
            margin_rows.append(gate.mean_inverse_rows(cls, pooled))
            biased_rows.append(gate.mean_inverse_rows(cls, 1.1 * pooled))
        margins = gate.judge_mean_inverse(margin_rows)
        checks.add("margin gate mean(1/X) = 1", margins.passed,
                   margins.describe())
        biased = gate.judge_mean_inverse(biased_rows)
        record["gate"] = {"margins": margins.describe(),
                          "margins_on_fields_x1.1": biased.describe(),
                          "x1.1_rejected": not biased.passed}


class Loop9(Simulation):
    """The closed loop: seven classes on 9 sites, estimate_chi against tcf."""

    name = "loop-9"
    per_round = {cls: 500 for cls in catalog.SIM_CLASSES}
    lags = (0.5, 1.0, 1.5, 2.0)

    def build(self, tc):
        return catalog.loop_models(tc)

    def grid(self, tc):
        return tc.GridSpec(dim=1, shape=(9,), spacing=0.5)

    def setup(self, tc, seed, tracer, workdir):
        super().setup(tc, seed, tracer, workdir)
        self.estimates = {cls: [] for cls in self.models}
        self.truths = {}

    def after_draw(self, cls, fields, tracer):
        try:
            estimates = tracer.call("simulate", self.tc.estimate_chi, fields,
                                    self.lags,
                                    metric="simulate.estimate_chi_ms")
            lags = np.array([e.lag for e in estimates])
            chi = tracer.call("models", self.tc.tcf, self.models[cls], lags,
                              metric=f"models.tcf_us_per_lag.{cls}",
                              units=len(lags))
        except OpFailed:
            self.estimates[cls].append(None)
            return
        self.estimates[cls].append(estimates)
        self.truths[cls] = (lags, chi)

    def finish(self, checks, record, tracer):
        super().finish(checks, record, tracer)
        rows, biased = [], []
        for cls in self.models:
            if cls not in self.truths:
                checks.add(f"{cls} closed loop", False, "no estimates")
                continue
            worst = 0.0
            for values, estimates in zip(self.values[cls], self.estimates[cls]):
                for est in estimates or ():
                    mine, std_err = gate.pair_chi(
                        values, 0, round(est.lag / self.spec.spacing))
                    worst = max(worst,
                                abs(min(1.0, max(0.0, mine)) - est.chi_hat),
                                abs(std_err - est.std_err))
            checks.add(f"{cls} estimate_chi matches recomputation",
                       worst <= 1e-12, f"max difference {worst:.3g}")
            lags, chi = self.truths[cls]
            pairs = [(0, round(lag / self.spec.spacing)) for lag in lags]
            pooled = np.concatenate(self.values[cls])
            rows += gate.chi_rows(cls, pooled, pairs, list(lags), list(chi))
            biased += gate.chi_rows(cls, 1.1 * pooled, pairs, list(lags),
                                    list(chi))
        verdict = gate.judge_z(rows)
        checks.add("chi gate |chi_hat - tcf| / SE", verdict.passed,
                   verdict.describe())
        on_biased = gate.judge_z(biased)
        record["gate"].update(chi=verdict.describe(),
                              chi_on_fields_x1_1=on_biased.describe(),
                              chi_x1_1_rejected=not on_biased.passed)


class Grid1024(Simulation):
    """Few realizations of four classes on a 32 x 32 grid."""

    name = "grid-1024"
    per_round = {"M2r": 1, "M3b": 4, "BR": 1}
    # The dense Gaussian factor of BR and EG is set-up work here, so one
    # stream serves many rounds.
    rounds_per_stream = 64

    def build(self, tc):
        return catalog.grid_models(tc)

    def grid(self, tc):
        return tc.GridSpec(dim=2, shape=(32, 32), spacing=0.25)


class Analytic:
    """tcf sweeps, the analytic acceptance computations and classify."""

    name = "analytic"

    def setup(self, tc, seed, tracer, workdir):
        self.tc = tc
        with tracer.span("models", "build"):
            self.cases = catalog.tcf_models(tc)
            self.candidates = catalog.candidates(tc)
        self.results: list[dict] = []
        self.timings: list[tuple[float, float, int]] = []

    def round(self, index, tracer) -> bool:
        tc = self.tc
        out: dict = {}
        lag_count = 0
        start = time.perf_counter()
        for kind, cases in self.cases.items():
            for number, (model, lags, _, _) in enumerate(cases):
                lag_count += len(lags)
                try:
                    out[f"tcf {kind} {number}"] = tracer.call(
                        "models", tc.tcf, model, lags,
                        metric=f"models.tcf_us_per_lag.{kind}",
                        units=len(lags))
                except OpFailed as exc:
                    out[f"tcf {kind} {number}"] = f"raised {exc}"
        sweep_s = time.perf_counter() - start
        for name, criterion in criteria.CRITERIA.items():
            try:
                out[name] = criterion(tc, tracer)
            except OpFailed as exc:
                out[name] = (False, f"raised {exc}")
        start = time.perf_counter()
        for name, (chi, d, _) in self.candidates.items():
            try:
                report = tracer.call("membership", tc.classify, chi, d,
                                     metric=f"membership.classify_ms.{name}")
                out[f"classify {name}"] = {k: v.status
                                           for k, v in report.verdicts.items()}
            except OpFailed as exc:
                out[f"classify {name}"] = f"raised {exc}"
        self.timings.append((sweep_s, time.perf_counter() - start, lag_count))
        self.results.append(out)
        return True

    def finish(self, checks, record, tracer):
        first = self.results[0]
        for kind, cases in self.cases.items():
            for number, (_, lags, reference, tol) in enumerate(cases):
                got = first[f"tcf {kind} {number}"]
                if isinstance(got, str):
                    checks.add(f"tcf {kind} {number}", False, got)
                    continue
                gap = float(np.max(np.abs(got - reference(lags))))
                checks.add(f"tcf {kind} {number} against reference",
                           gap <= tol, f"max deviation {gap:.3g} (tol {tol:g})")
        for name in criteria.CRITERIA:
            ok, detail = first[name]
            checks.add(name, ok, detail)
        for name, (_, _, expected) in self.candidates.items():
            got = first[f"classify {name}"]
            if isinstance(got, str):
                checks.add(f"classify {name}", False, got)
                continue
            refuted = {k for k, status in got.items() if status == "fail"}
            checks.add(f"classify {name}", refuted == expected,
                       f"refuted by {sorted(refuted)}")
        repeat = all(_same(first, later) for later in self.results[1:])
        checks.add("analytic outputs repeat exactly across rounds", repeat)
        sweep = [s for s, _, _ in self.timings]
        classify = [c for _, c, _ in self.timings]
        record["tcf_evals_per_s"] = self.timings[0][2] / float(np.median(sweep))
        record["classify_s"] = float(np.median(classify))


def _same(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for key, value in a.items():
        other = b[key]
        if isinstance(value, np.ndarray):
            if not (isinstance(other, np.ndarray)
                    and np.array_equal(value, other)):
                return False
        elif value != other:
            return False
    return True


WORKLOADS = {w.name: w for w in (Loop9, Grid1024, Analytic)}
