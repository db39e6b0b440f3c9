"""Tests for the command-line interface.

Everything runs through :class:`click.testing.CliRunner`; CSV bodies are
parsed back and compared against the library the commands wrap, so the
CLI layer is checked for faithful plumbing rather than re-deriving the
mathematics (which has its own test modules).
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import get_args

import numpy as np
import pytest
from click.testing import CliRunner

import tailcorr
from tailcorr import (
    BRModel,
    GridSpec,
    SimConfig,
    estimate_chi,
    simulate,
    tcf,
)
from tailcorr.cli import (
    _config_fields,
    _read_fields_csv,
    main,
    resolve_function,
)
from tailcorr.errors import ConfigError, DomainError
from tailcorr.models import M3rModel, ShapeEnsemble, TcfModel
from tailcorr.presets import bounded_gauss_correlations
from tailcorr.radial import fbm_variogram, tent

BR_YAML = """\
class: BR
dim: 1
variogram:
  type: fbm
  scale: 8.0
  alpha: 1.0
"""

EG_YAML = """\
class: EG
dim: 1
correlation:
  type: bounded_gauss_eg
"""


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def br_config(tmp_path):
    path = tmp_path / "br.yaml"
    path.write_text(BR_YAML)
    return str(path)


def csv_rows(text):
    """Data rows of a rendered CSV: skip comments and the column header."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def csv_header(text):
    return text.splitlines()[0]


class TestEval:
    def test_brown_resnick_closed_form(self, runner, br_config):
        """gamma(t) = 8t gives chi(0) = 1, chi(1) = erfc(1),
        chi(2) = erfc(sqrt(2))."""
        res = runner.invoke(main, ["eval", br_config, "--lags", "0:2:1"])
        assert res.exit_code == 0
        rows = csv_rows(res.stdout)
        assert [float(r[0]) for r in rows] == [0.0, 1.0, 2.0]
        assert float(rows[0][1]) == 1.0
        assert float(rows[1][1]) == pytest.approx(math.erfc(1.0), abs=1e-14)
        assert float(rows[2][1]) == pytest.approx(math.erfc(math.sqrt(2.0)),
                                                  abs=1e-14)

    def test_header_carries_version_seed_fingerprint(self, runner, br_config):
        res = runner.invoke(main, ["eval", br_config, "--lags", "1",
                                   "--seed", "7"])
        header = csv_header(res.stdout)
        assert header.startswith("# tailcorr ")
        assert " seed=7 " in header
        assert "fingerprint=" in header

    def test_failed_lag_becomes_nan_with_notice(self, runner, br_config):
        """A lag the model rejects yields NaN in its row and a notice on
        stderr; the command still completes."""
        res = runner.invoke(main, ["eval", br_config, "--lags", "-1,1",
                                   "--quiet"])
        assert res.exit_code == 0
        rows = csv_rows(res.stdout)
        assert math.isnan(float(rows[0][1]))
        assert float(rows[1][1]) == pytest.approx(math.erfc(1.0))
        assert "chi(-1) failed" in res.stderr

    def test_out_writes_lf_file(self, runner, br_config, tmp_path):
        out = tmp_path / "chi.csv"
        res = runner.invoke(main, ["eval", br_config, "--lags", "0,1",
                                   "--out", str(out), "--quiet"])
        assert res.exit_code == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_comma_lag_list(self, runner, br_config):
        res = runner.invoke(main, ["eval", br_config, "--lags", "0.25,4"])
        rows = csv_rows(res.stdout)
        assert [float(r[0]) for r in rows] == [0.25, 4.0]

    def test_quiet_suppresses_progress(self, runner, br_config):
        res = runner.invoke(main, ["eval", br_config, "--lags", "1",
                                   "--quiet"])
        assert res.stderr == ""


class TestConfigStrictness:
    def test_unknown_key_rejected_with_dotted_address(self, runner, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(BR_YAML.replace("alpha: 1.0",
                                        "alpha: 1.0\n  slope: 2.0"))
        res = runner.invoke(main, ["eval", str(path), "--lags", "1"])
        assert res.exit_code != 0
        assert "variogram.slope" in res.output
        assert "unknown key" in res.output

    def test_wrong_scalar_type_names_the_field(self, runner, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(BR_YAML.replace("dim: 1", "dim: one"))
        res = runner.invoke(main, ["eval", str(path), "--lags", "1"])
        assert res.exit_code != 0
        assert "dim" in res.output

    def test_missing_section_named(self, runner, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("class: EG\ndim: 1\n")
        res = runner.invoke(main, ["eval", str(path), "--lags", "1"])
        assert res.exit_code != 0
        assert "correlation" in res.output

    def test_yaml_syntax_error_reports_position(self, runner, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("class: [unclosed\n")
        res = runner.invoke(main, ["eval", str(path), "--lags", "1"])
        assert res.exit_code != 0
        assert "line" in res.output

    def test_non_mapping_document_rejected(self, runner, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- 1\n- 2\n")
        res = runner.invoke(main, ["eval", str(path), "--lags", "1"])
        assert res.exit_code != 0
        assert "mapping" in res.output

    @pytest.mark.parametrize("doc", [
        "class: M2r\ndim: 3\nshape:\n  name: erfc_sqrt\n  dim: 3\n",
        "class: M3b\ndim: 1\nradius:\n  type: point_mass\n  value: 0.4\n",
        "class: MPS\ndim: 2\nmixing:\n  type: erfc_sqrt_arctan\n",
        BR_YAML,
        ("class: VBR\ndim: 1\nvariogram:\n  type: bounded\n  lambda: 1.62\n"
         "  correlation:\n    type: exponential\nscale_mixing:\n"
         "  type: point_mass\n  value: 0.7\n"),
        EG_YAML,
        "class: EBG\ndim: 1\ncorrelation:\n  type: bounded_gauss_ebg\n",
    ])
    def test_every_model_class_parses(self, runner, tmp_path, doc):
        path = tmp_path / "model.yaml"
        path.write_text(doc)
        res = runner.invoke(main, ["eval", str(path), "--lags", "0.5",
                                   "--quiet"])
        assert res.exit_code == 0, res.output
        value = float(csv_rows(res.stdout)[0][1])
        assert 0.0 <= value <= 1.0


class TestModelDeclarations:
    """Each model class states its TCF, sampler and config keys once, on
    its dataclass; the command line, the simulator and ``tcf`` read them
    from there."""

    SIMULABLE = {"M2r", "M3b", "MPS", "BR", "VBR", "EG", "EBG"}

    def test_classes_with_a_sampler(self):
        with_sampler = {cls.__name__.removesuffix("Model")
                        for cls in get_args(TcfModel)
                        if hasattr(cls, "_profile_sampler")}
        assert with_sampler == self.SIMULABLE

    def test_every_config_field_has_a_parser(self):
        for model_type in get_args(TcfModel):
            if hasattr(model_type, "_profile_sampler"):
                assert _config_fields(model_type)

    def test_every_model_type_has_a_tcf(self):
        for model_type in get_args(TcfModel):
            assert callable(getattr(model_type, "_tcf", None)), model_type

    def test_cli_parses_exactly_the_simulable_classes(self, runner,
                                                      tmp_path):
        path = tmp_path / "m3r.yaml"
        path.write_text("class: M3r\ndim: 1\n")
        res = runner.invoke(main, ["eval", str(path), "--lags", "1"])
        assert res.exit_code != 0
        listed = res.output.split("expected one of ")[1].split(";")[0]
        assert set(listed.split(", ")) == self.SIMULABLE

    def test_not_supported_message_lists_the_simulable_classes(self):
        ensemble = ShapeEnsemble(name="const", sample=lambda rng: tent())
        config = SimConfig(model=M3rModel(dim=1, ensemble=ensemble),
                           grid=GridSpec(dim=1, shape=(2,)),
                           n_realizations=1, seed=0)
        with pytest.raises(DomainError, match="not supported") as err:
            simulate(config)
        listed = str(err.value).split("supported classes: ")[1].split(", ")
        assert len(listed) == len(set(listed))
        assert set(listed) == self.SIMULABLE


class TestFunctionSpecs:
    @pytest.mark.parametrize("spec", [
        "erfc_sqrt", "tent", "exp", "exp:2.5", "powered_erfc:0.3",
        "powered_exponential:1.5", "truncated_power:2",
        "whittle_matern:0.5", "generalized_cauchy:0.5:1.0",
        "phi_d:3", "chi_d:3",
    ])
    def test_named_specs_resolve_to_unit_origin(self, spec):
        f = resolve_function(spec)
        assert float(f(0.0)) == pytest.approx(1.0)

    def test_exp_scale_parameter(self):
        f = resolve_function("exp:2.0")
        assert float(f(2.0)) == pytest.approx(math.exp(-1.0))

    def test_unknown_spec_raises_config_error(self):
        with pytest.raises(ConfigError, match="unknown function spec"):
            resolve_function("mystery")

    def test_config_backed_spec_matches_model(self, tmp_path):
        path = tmp_path / "eg.yaml"
        path.write_text(EG_YAML)
        f = resolve_function("@" + str(path))
        from tailcorr import EGModel
        model = EGModel(dim=1, correlation=bounded_gauss_correlations()[0])
        assert float(f(0.8)) == pytest.approx(tcf(model, 0.8), abs=1e-12)


class TestRecover:
    def test_shape_matches_closed_form(self, runner):
        """d = 3 inversion of erfc(sqrt t) against the closed-form shape
        density."""
        from tailcorr.presets import erfc_sqrt_shape
        res = runner.invoke(main, ["recover", "erfc_sqrt", "--target",
                                   "shape", "--d", "3",
                                   "--grid", "0.05:5:9", "--quiet"])
        assert res.exit_code == 0
        closed = erfc_sqrt_shape(3)
        for u, f in ((float(a), float(b)) for a, b in csv_rows(res.stdout)):
            assert f == pytest.approx(float(closed(u)), rel=1e-6)

    def test_radius_matches_closed_form(self, runner):
        from tailcorr.presets import erfc_sqrt_diameter_density
        res = runner.invoke(main, ["recover", "erfc_sqrt", "--target",
                                   "radius", "--d", "3",
                                   "--grid", "0.05:5:9", "--quiet"])
        assert res.exit_code == 0
        closed = erfc_sqrt_diameter_density(3)
        for s, k in ((float(a), float(b)) for a, b in csv_rows(res.stdout)):
            assert k == pytest.approx(float(closed(s)), rel=1e-6)


class TestTransform:
    def test_s_and_t_reproduce_bounded_gauss_correlations(self, runner):
        """S_1.62 and T_1.62 applied to e^{-t} give the EG and EBG
        correlations of the bounded-Gaussian family."""
        rho_eg, rho_ebg = bounded_gauss_correlations()
        for map_name, closed in (("S", rho_eg), ("T", rho_ebg)):
            res = runner.invoke(main, ["transform", "exp", "--map", map_name,
                                       "--lam", "1.62",
                                       "--grid", "0.01:10:25", "--quiet"])
            assert res.exit_code == 0
            for t, _, y in ((float(a), float(b), float(c))
                            for a, b, c in csv_rows(res.stdout)):
                assert y == pytest.approx(float(closed(t)), abs=1e-12)

    def test_r_map_squares_toward_one(self, runner):
        from tailcorr.operators import transform_R
        res = runner.invoke(main, ["transform", "exp", "--map", "R",
                                   "--grid", "0.1:2:5", "--quiet"])
        assert res.exit_code == 0
        for _, x, y in ((float(a), float(b), float(c))
                        for a, b, c in csv_rows(res.stdout)):
            assert y == pytest.approx(transform_R(x), abs=1e-15)


class TestTurningBands:
    def test_tent_projects_to_phi_3(self, runner):
        """tb_1^3 of the tent function is phi_3: 1 - r/2 on [0, 1] and
        1/(2r) beyond."""
        res = runner.invoke(main, ["tb", "tent", "--k", "1", "--d", "3",
                                   "--grid", "0.2:3:8:lin", "--quiet"])
        assert res.exit_code == 0
        for r, v in ((float(a), float(b)) for a, b in csv_rows(res.stdout)):
            want = 1 - r / 2 if r <= 1 else 1 / (2 * r)
            assert v == pytest.approx(want, abs=1e-8)

    def test_k_larger_than_d_rejected(self, runner):
        res = runner.invoke(main, ["tb", "tent", "--k", "3", "--d", "1"])
        assert res.exit_code != 0


class TestCheck:
    def test_erfc_sqrt_report_all_pass(self, runner):
        res = runner.invoke(main, ["check", "erfc_sqrt", "--d", "3"])
        assert res.exit_code == 0
        assert "completely_monotone" in res.stdout
        assert "fail" not in res.stdout

    def test_refuted_battery_still_exits_zero(self, runner):
        """A completed report is a success even when a test refutes
        membership; failures are findings, not errors."""
        res = runner.invoke(main, ["check", "powered_erfc:0.8", "--d", "3"])
        assert res.exit_code == 0
        assert "completely_monotone" in res.stdout
        assert "fail" in res.stdout

    def test_csv_report_columns(self, runner, tmp_path):
        out = tmp_path / "verdicts.csv"
        res = runner.invoke(main, ["check", "erfc_sqrt", "--d", "3",
                                   "--out", str(out), "--quiet"])
        assert res.exit_code == 0
        text = out.read_text()
        assert text.splitlines()[1] == "test,status,witness,tolerance"
        statuses = {row[1] for row in csv_rows(text)}
        assert statuses == {"pass"}


class TestSimulateEstimate:
    def test_round_trip_matches_library(self, runner, br_config, tmp_path):
        """simulate -> CSV -> estimate reproduces the in-memory estimator
        bit for bit (the CSV stores full-precision values and the grid)."""
        fields_csv = tmp_path / "fields.csv"
        res = runner.invoke(main, ["simulate", br_config, "--grid", "5@0.5",
                                   "--n", "200", "--seed", "3",
                                   "--out", str(fields_csv), "--quiet"])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["estimate", str(fields_csv),
                                   "--lags", "0.5,1.0", "--quiet"])
        assert res.exit_code == 0, res.output

        model = BRModel(dim=1, variogram=fbm_variogram(8.0, 1.0))
        grid = GridSpec(dim=1, shape=(5,), spacing=0.5)
        fields = list(simulate(SimConfig(model=model, grid=grid,
                                         n_realizations=200, seed=3)))
        direct = estimate_chi(fields, [0.5, 1.0])
        for row, est in zip(csv_rows(res.stdout), direct):
            assert float(row[0]) == est.lag
            assert float(row[1]) == est.chi_hat
            assert float(row[2]) == est.std_err
            assert int(row[3]) == est.n

    def test_grid_metadata_header(self, runner, br_config, tmp_path):
        out = tmp_path / "fields.csv"
        res = runner.invoke(main, ["simulate", br_config, "--grid",
                                   "4@0.25@1.5", "--n", "2", "--seed", "1",
                                   "--out", str(out), "--quiet"])
        assert res.exit_code == 0
        meta = out.read_text().splitlines()[1]
        assert meta.startswith("# grid ")
        assert "shape=4" in meta
        assert "spacing=0.25" in meta
        assert "origin=1.5" in meta
        assert "margins=frechet" in meta

    def test_origin_round_trips_at_full_precision(self, runner, br_config,
                                                  tmp_path):
        out = tmp_path / "fields.csv"
        res = runner.invoke(main, ["simulate", br_config, "--grid",
                                   "3@0.5@0.123456789", "--n", "1",
                                   "--out", str(out), "--quiet"])
        assert res.exit_code == 0
        (field,) = _read_fields_csv(str(out))
        assert field.origin == (0.123456789,)

    def test_same_seed_same_bytes(self, runner, br_config, tmp_path):
        digests = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            res = runner.invoke(main, ["simulate", br_config, "--grid",
                                       "4@0.5", "--n", "50", "--seed", "9",
                                       "--out", str(out), "--quiet"])
            assert res.exit_code == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_gumbel_fields_estimate_after_conversion(self, runner, br_config,
                                                     tmp_path):
        """estimate converts Gumbel-margin inputs back to Frechet, so the
        two margin choices give identical estimates up to rounding."""
        estimates = {}
        for margins in ("frechet", "gumbel"):
            out = tmp_path / f"{margins}.csv"
            res = runner.invoke(main, ["simulate", br_config, "--grid",
                                       "5@0.5", "--n", "150", "--seed", "4",
                                       "--margins", margins,
                                       "--out", str(out), "--quiet"])
            assert res.exit_code == 0
            res = runner.invoke(main, ["estimate", str(out),
                                       "--lags", "1.0", "--quiet"])
            assert res.exit_code == 0
            estimates[margins] = float(csv_rows(res.stdout)[0][1])
        assert estimates["gumbel"] == pytest.approx(estimates["frechet"],
                                                    abs=1e-9)

    def test_estimate_rejects_headerless_csv(self, runner, tmp_path):
        path = tmp_path / "naked.csv"
        path.write_text("realization,x0,value\n0,0.0,1.0\n")
        res = runner.invoke(main, ["estimate", str(path), "--lags", "1"])
        assert res.exit_code != 0
        assert "grid" in res.output

    def test_bad_grid_geometry_rejected(self, runner, br_config):
        res = runner.invoke(main, ["simulate", br_config, "--grid", "5x0.5",
                                   "--n", "2"])
        assert res.exit_code != 0


class TestReproduce:
    @pytest.mark.parametrize("suite,expected", [
        ("erfc-sqrt", {"chi.csv", "shape_recovery.csv",
                       "radius_recovery.csv", "mps_laplace.csv",
                       "summary.csv", "fields_BR.csv", "fields_M2r.csv",
                       "fields_M3b.csv", "chi_hat_BR.csv",
                       "chi_hat_M2r.csv", "chi_hat_M3b.csv"}),
        ("bounded-gauss", {"rho_eg.csv", "rho_ebg.csv", "tcf_agreement.csv",
                           "summary.csv", "fields_EG.csv", "fields_EBG.csv",
                           "fields_BR.csv", "chi_hat_EG.csv",
                           "chi_hat_EBG.csv", "chi_hat_BR.csv"}),
    ])
    def test_suite_passes_and_writes_artifacts(self, runner, tmp_path,
                                               suite, expected):
        out_dir = tmp_path / suite
        res = runner.invoke(main, ["reproduce", suite, "--out-dir",
                                   str(out_dir), "--n", "400", "--quiet"])
        assert res.exit_code == 0, res.output
        assert {p.name for p in out_dir.iterdir()} == expected
        summary = csv_rows((out_dir / "summary.csv").read_text())
        assert all(row[-1] == "pass" for row in summary)

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        hashes = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            res = runner.invoke(main, ["reproduce", "bounded-gauss",
                                       "--out-dir", str(out_dir),
                                       "--n", "400", "--quiet"])
            assert res.exit_code == 0
            hashes.append({
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out_dir.iterdir()
            })
        assert hashes[0] == hashes[1]

    def test_unknown_suite_rejected(self, runner, tmp_path):
        res = runner.invoke(main, ["reproduce", "other", "--out-dir",
                                   str(tmp_path / "x")])
        assert res.exit_code != 0

    def test_estimate_reads_reproduced_fields(self, runner, tmp_path):
        """The fields CSVs of reproduce carry the grid header, so estimate
        reads them back to the suite's own chi-hat rows."""
        out_dir = tmp_path / "erfc"
        res = runner.invoke(main, ["reproduce", "erfc-sqrt", "--out-dir",
                                   str(out_dir), "--n", "100", "--quiet"])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["estimate", str(out_dir / "fields_BR.csv"),
                                   "--lags", "0.5,1.0,1.5,2.0", "--quiet"])
        assert res.exit_code == 0, res.output
        suite_rows = csv_rows((out_dir / "chi_hat_BR.csv").read_text())
        assert [row[:4] for row in csv_rows(res.stdout)] == \
            [row[:4] for row in suite_rows]


class TestColdImport:
    def test_import_does_not_load_scipy_signal(self):
        src = str(Path(tailcorr.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, tailcorr; print('scipy.signal' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestGridSpecs:
    @pytest.mark.parametrize("spec", ["1:2", "2:1:5", "0:1:5:log",
                                      "1:2:1", "1:2:5:cubic"])
    def test_bad_evaluation_grids_rejected(self, runner, spec):
        res = runner.invoke(main, ["tb", "tent", "--k", "1", "--d", "3",
                                   "--grid", spec])
        assert res.exit_code != 0

    def test_linear_grid_endpoints(self, runner):
        res = runner.invoke(main, ["transform", "exp", "--map", "R",
                                   "--grid", "1:3:3:lin", "--quiet"])
        assert [float(r[0]) for r in csv_rows(res.stdout)] == [1.0, 2.0, 3.0]

    def test_default_grid_is_200_point_log(self, runner):
        res = runner.invoke(main, ["transform", "exp", "--map", "R",
                                   "--quiet"])
        ts = [float(r[0]) for r in csv_rows(res.stdout)]
        assert len(ts) == 200
        assert ts[0] == pytest.approx(1e-3)
        assert ts[-1] == pytest.approx(1e2)
