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

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import tailcorr
from tailcorr import (
    BRModel,
    EBGModel,
    EGModel,
    GridSpec,
    M2rModel,
    M3bModel,
    MPSModel,
    SimConfig,
    LagEstimate,
    VBRModel,
    estimate_chi,
    simulate,
    tcf,
    turning_bands,
)
from tailcorr.cli import (
    _SCALARS,
    _SECTIONS,
    _config_fields,
    _parse_grid,
    _parse_lags,
    _read_fields_csv,
    main,
    model_from_doc,
    resolve_function,
)
from tailcorr.distributions import Distribution1D, exponential_dist, point_mass
from tailcorr.errors import ConfigError, DomainError
from tailcorr.models import M3rModel, ShapeEnsemble, TcfModel
from tailcorr.simulate import _SIMULABLE
from tailcorr.presets import (
    REPRODUCTION_SUITES,
    Check,
    Suite,
    bounded_gauss_correlations,
    erfc_sqrt_mps_mixing,
    erfc_sqrt_radius_law,
    erfc_sqrt_shape,
    erfc_sqrt_suite,
)
from tailcorr.radial import (
    ball_indicator,
    bounded_variogram,
    correlation_from_callable,
    exponential_correlation,
    fbm_variogram,
    tent,
)

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
        """The header names the seed only where a seed was drawn from."""
        res = runner.invoke(main, ["eval", br_config, "--lags", "1"])
        header = csv_header(res.stdout)
        assert header.startswith("# tailcorr ")
        assert "seed=" not in header
        assert "fingerprint=" in header
        res = runner.invoke(main, ["simulate", br_config, "--grid", "2@0.5",
                                   "--n", "1", "--seed", "7", "--quiet"])
        header = csv_header(res.stdout)
        assert header.startswith("# tailcorr ")
        assert " seed=7 " in header
        assert "fingerprint=" in header

    def test_lags_and_grid_exclude_each_other(self, runner, br_config):
        res = runner.invoke(main, ["eval", br_config, "--lags", "0.5",
                                   "--grid", "1:2:3"])
        assert res.exit_code == 2
        assert "--lags" in res.output and "--grid" in res.output

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

    @pytest.mark.parametrize("doc,message", [
        ("class: M2r\ndim: 2\nshape: {name: erfc_sqrt, dim: 2}\n",
         "shape: shape available for dim 1 and 3 only, got 2"),
        ("class: M3b\ndim: 2\nradius: {type: erfc_sqrt_radius, dim: 2}\n",
         "radius: density available for dim 1 and 3 only, got 2"),
        ("class: BR\ndim: 1\nvariogram: {type: fbm, scale: 1.0, alpha: 3}\n",
         "variogram: fbm variogram alpha must be in (0, 2]"),
    ])
    def test_builder_rejection_names_the_section(self, runner, tmp_path, doc,
                                                 message):
        path = tmp_path / "bad.yaml"
        path.write_text(doc)
        res = runner.invoke(main, ["eval", str(path), "--lags", "1"])
        assert res.exit_code == 1
        assert f"Error: {message}" in res.output

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


def _tabulated_law(points):
    """The law of a ``tabulated`` section, built by hand."""
    xs, fs = np.array(points, dtype=float).T
    return Distribution1D(
        name="tabulated_cdf",
        cdf=lambda s: float(np.interp(s, xs, fs, left=0.0, right=1.0)),
        support=(float(xs[0]), float(xs[-1])),
        quantile=lambda q: float(np.interp(q, fs, xs)))


def _gaussian(scale):
    return correlation_from_callable(
        "gaussian", lambda t: math.exp(-(t / scale) ** 2))


class TestConfigSections:
    """Every kind of config section builds what the library constructors
    build: 5 laws, 4 correlations, 2 variograms and 3 shapes."""

    LAGS = (0.0, 0.3, 0.7, 1.5)
    TABLE = [[0.2, 0.0], [0.5, 0.4], [1.0, 1.0]]

    @pytest.mark.parametrize("doc,build", [
        # laws
        ("class: M3b\ndim: 1\nradius: {type: point_mass, value: 0.4}\n",
         lambda: M3bModel(dim=1, radius=point_mass(0.4))),
        ("class: M3b\ndim: 1\nradius: {type: exponential, rate: 2.0}\n",
         lambda: M3bModel(dim=1, radius=exponential_dist(2.0))),
        ("class: M3b\ndim: 1\nradius: {type: exponential}\n",
         lambda: M3bModel(dim=1, radius=exponential_dist(1.0))),
        ("class: M3b\ndim: 3\nradius: {type: erfc_sqrt_radius}\n",
         lambda: M3bModel(dim=3, radius=erfc_sqrt_radius_law(3))),
        ("class: M3b\ndim: 1\nradius: {type: erfc_sqrt_radius, dim: 1}\n",
         lambda: M3bModel(dim=1, radius=erfc_sqrt_radius_law(1))),
        ("class: MPS\ndim: 2\nmixing: {type: erfc_sqrt_arctan}\n",
         lambda: MPSModel(dim=2, mixing=erfc_sqrt_mps_mixing())),
        # correlations
        ("class: EG\ndim: 1\ncorrelation: {type: exponential, scale: 2.0}\n",
         lambda: EGModel(dim=1, correlation=exponential_correlation(2.0))),
        ("class: EG\ndim: 1\ncorrelation: {type: exponential}\n",
         lambda: EGModel(dim=1, correlation=exponential_correlation(1.0))),
        ("class: EBG\ndim: 1\ncorrelation: {type: gaussian, scale: 1.5}\n",
         lambda: EBGModel(dim=1, correlation=_gaussian(1.5))),
        ("class: EG\ndim: 1\ncorrelation: {type: gaussian}\n",
         lambda: EGModel(dim=1, correlation=_gaussian(1.0))),
        ("class: EG\ndim: 1\ncorrelation: {type: bounded_gauss_eg}\n",
         lambda: EGModel(dim=1,
                         correlation=bounded_gauss_correlations()[0])),
        ("class: EBG\ndim: 1\ncorrelation: {type: bounded_gauss_ebg}\n",
         lambda: EBGModel(dim=1,
                          correlation=bounded_gauss_correlations()[1])),
        # variograms
        ("class: BR\ndim: 1\nvariogram: {type: fbm, scale: 8.0, alpha: 1.0}\n",
         lambda: BRModel(dim=1, variogram=fbm_variogram(8.0, 1.0))),
        ("class: VBR\ndim: 1\nvariogram: {type: bounded, lambda: 1.62,\n"
         "  correlation: {type: gaussian, scale: 1.5}}\n"
         "scale_mixing: {type: exponential, rate: 0.5}\n",
         lambda: VBRModel(dim=1,
                          variogram=bounded_variogram(1.62, _gaussian(1.5)),
                          scale_mixing=exponential_dist(0.5))),
        # shapes
        ("class: M2r\ndim: 3\nshape: {name: erfc_sqrt}\n",
         lambda: M2rModel(dim=3, shape=erfc_sqrt_shape(3))),
        ("class: M2r\ndim: 1\nshape: {name: erfc_sqrt, dim: 1}\n",
         lambda: M2rModel(dim=1, shape=erfc_sqrt_shape(1))),
        ("class: M2r\ndim: 1\nshape: {name: tent}\n",
         lambda: M2rModel(dim=1, shape=tent())),
        ("class: M2r\ndim: 2\nshape: {name: ball, dim: 2, radius: 0.5}\n",
         lambda: M2rModel(dim=2, shape=ball_indicator(2, 0.5))),
        ("class: M2r\ndim: 1\nshape: {name: ball, dim: 1}\n",
         lambda: M2rModel(dim=1, shape=ball_indicator(1))),
    ])
    def test_section_builds_the_library_model(self, doc, build):
        parsed, built = model_from_doc(yaml.safe_load(doc)), build()
        assert type(parsed) is type(built)
        for t in self.LAGS:
            assert tcf(parsed, t) == pytest.approx(tcf(built, t), rel=1e-12,
                                                   abs=1e-15)

    def test_tabulated_law_interpolates_its_cdf_points(self):
        """A tabulated law's cdf, support and draws are those of the
        interpolated table."""
        doc = {"class": "M3b", "dim": 1,
               "radius": {"type": "tabulated", "points": self.TABLE}}
        parsed = model_from_doc(doc).radius
        built = _tabulated_law(self.TABLE)
        assert parsed.support == built.support == (0.2, 1.0)
        for s in (0.0, 0.2, 0.35, 0.5, 0.75, 1.0, 2.0):
            assert parsed.cdf_value(s) == built.cdf_value(s)
        draws = [law.sample(np.random.default_rng(5), 64)
                 for law in (parsed, built)]
        assert np.array_equal(*draws)

    @pytest.mark.parametrize("points", [
        TABLE, [[0.2, 0.25], [0.5, 0.4], [1.0, 1.0]]])
    def test_tabulated_law_has_a_tcf(self, runner, tmp_path, points):
        """The interpolated cdf has a piecewise constant density (plus an
        atom at the first x when its F is positive), so ``eval`` gives the
        M3b d = 1 TCF E[(1 - t/2R)+] of the table."""
        path = tmp_path / "model.yaml"
        path.write_text(yaml.safe_dump({
            "class": "M3b", "dim": 1,
            "radius": {"type": "tabulated", "points": points}}))
        res = runner.invoke(main, ["eval", str(path), "--lags", "0:2:0.25",
                                   "--quiet"])
        assert res.exit_code == 0, res.output
        assert res.stderr == ""
        (x0, f0), *_ = points
        for t, chi in csv_rows(res.stdout):
            half = float(t) / 2.0
            expected = f0 * max(0.0, 1.0 - half / x0)
            for (a, fa), (b, fb) in zip(points, points[1:]):
                lo = max(a, half)
                if lo < b:
                    expected += (fb - fa) / (b - a) * (
                        b - lo - half * math.log(b / lo))
            assert float(chi) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("points,message", [
        ([["a", 0.0], [1.0, 1.0]], "number pairs"),
        ([[0.5, 1.0]], "at least two"),
        ([[0.2, 0.0, 1.0], [1.0, 1.0, 1.0]], "at least two"),
        ([[1.0, 0.0], [0.5, 1.0]], "increasing x"),
        ([[0.2, 0.5], [1.0, 0.3]], "non-decreasing F"),
        ([[0.2, 0.0], [1.0, 0.9]], "rise to 1"),
        ([[0.2, -0.1], [1.0, 1.0]], "rise to 1"),
    ])
    def test_cdf_points_rejection_names_its_address(self, points, message):
        doc = {"class": "VBR", "dim": 1,
               "variogram": {"type": "fbm", "scale": 2.0, "alpha": 1.0},
               "scale_mixing": {"type": "tabulated", "points": points}}
        with pytest.raises(ConfigError, match=message) as err:
            model_from_doc(doc)
        assert err.value.address == "scale_mixing.points"
        assert str(err.value).startswith("scale_mixing.points: ")

    @pytest.mark.parametrize("doc,address", [
        ("class: M3b\ndim: 1\nradius: {type: tabulated, "
         "points: [[0.1, 0.0], [.nan, 1.0]]}", "radius.points"),
        ("class: M3b\ndim: 1\nradius: {type: tabulated, "
         "points: [[0.1, 0.0], [.inf, 1.0]]}", "radius.points"),
        ("class: M3b\ndim: 1\nradius: {type: exponential, rate: .nan}",
         "radius.rate"),
        ("class: MPS\ndim: 1\nmixing: {type: exponential, rate: .inf}",
         "mixing.rate"),
        ("class: BR\ndim: 1\nvariogram: {type: bounded, lambda: .inf, "
         "correlation: {type: exponential}}",
         "variogram.lambda"),
        ("class: EG\ndim: 1\ncorrelation: {type: gaussian, "
         "scale: 1" + "0" * 400 + "}", "correlation.scale"),
    ], ids=["tabulated-nan", "tabulated-inf", "rate-nan", "rate-inf",
            "lambda-inf", "int-beyond-float"])
    def test_non_finite_number_rejected(self, doc, address):
        # These wrote nan or 0 rows, or ended in the storm budget.
        with pytest.raises(ConfigError, match="finite") as err:
            model_from_doc(yaml.safe_load(doc))
        assert err.value.address == address


class TestModelDeclarations:
    """Each model class states its TCF, sampler and config keys once, on
    its dataclass; the command line, the simulator and ``tcf`` read them
    from there."""

    SIMULABLE = {"M2r", "M3b", "MPS", "BR", "VBR", "EG", "EBG"}
    TAGS = ["M3r", "M2r", "M3b", "MPS", "BR", "VBR", "EG", "EBG",
            "Parametric", "ErfcMixture"]

    def model_types(self):
        """The model classes, checked to be the ten, in definition order."""
        types = TcfModel.__subclasses__()
        assert [cls.__name__.removesuffix("Model")
                for cls in types] == self.TAGS
        return types

    def test_classes_with_a_sampler(self):
        with_sampler = [cls.__name__.removesuffix("Model")
                        for cls in self.model_types()
                        if hasattr(cls, "_profile_sampler")]
        assert list(_SIMULABLE) == with_sampler
        assert set(with_sampler) == self.SIMULABLE

    def test_partial_profiles(self):
        partial = {cls.__name__.removesuffix("Model")
                   for cls in self.model_types() if cls._PARTIAL_PROFILE}
        assert partial == {"BR", "VBR", "EG", "EBG"}

    def test_every_config_field_type_has_a_parser(self):
        for model_type in self.model_types():
            if hasattr(model_type, "_profile_sampler"):
                fields = _config_fields(model_type)
                assert list(fields)[0] == "dim"
                assert set(fields.values()) <= set(_SECTIONS) | set(_SCALARS)

    def test_every_model_type_has_its_own_tcf(self):
        assert not hasattr(TcfModel, "_tcf")
        for model_type in self.model_types():
            assert callable(vars(model_type).get("_tcf")), model_type

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

    @pytest.mark.parametrize("target, name", [
        ("shape", "recover_shape"), ("radius", "recover_radius_density")])
    def test_grid_is_one_call(self, runner, monkeypatch, target, name):
        shapes = []
        inner = getattr(tailcorr.cli, name)

        def recorded(inp, x, **kwargs):
            shapes.append(np.shape(x))
            return inner(inp, x, **kwargs)

        monkeypatch.setattr(tailcorr.cli, name, recorded)
        res = runner.invoke(main, ["recover", "erfc_sqrt", "--target", target,
                                   "--d", "2", "--grid", "0.1:4:7", "--quiet"])
        assert res.exit_code == 0
        assert shapes == [(7,)]
        xs = [float(a) for a, _ in csv_rows(res.stdout)]
        assert xs == np.geomspace(0.1, 4.0, 7).tolist()

    @pytest.mark.parametrize("spec, dim", [
        ("whittle_matern:0.3", "3"), ("powered_exponential:0.5", "3"),
        ("chi_d:3", "1")])
    def test_numeric_derivatives_near_zero(self, runner, spec, dim):
        # The default Ridders ladders near r = 0 would evaluate these TCFs
        # at r < 0, where they read 1, NaN or raise.
        res = runner.invoke(main, ["recover", spec, "--target", "radius",
                                   "--d", dim, "--quiet"])
        assert res.exit_code == 0, res.output
        ks = [float(k) for _, k in csv_rows(res.stdout)]
        assert len(ks) == 200 and min(ks) >= 0.0

    def test_atomic_law_is_refused(self, runner):
        # The tent TCF inverts to a deterministic ball diameter.
        res = runner.invoke(main, ["recover", "tent", "--target", "radius",
                                   "--d", "1", "--quiet"])
        assert res.exit_code != 0
        assert "atoms" in res.output


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

    def test_grid_is_one_call(self, runner, monkeypatch):
        shapes = []
        inner = tailcorr.cli.apply_transform

        def recorded(spec, x):
            shapes.append(np.shape(x))
            return inner(spec, x)

        monkeypatch.setattr(tailcorr.cli, "apply_transform", recorded)
        res = runner.invoke(main, ["transform", "tent", "--map", "T",
                                   "--grid", "0.1:4:7", "--quiet"])
        assert res.exit_code == 0
        assert shapes == [(7,)]
        assert [float(a) for a, _, _ in csv_rows(res.stdout)] == \
            np.geomspace(0.1, 4.0, 7).tolist()

    @pytest.mark.parametrize("lam", ["nan", "inf", "0"])
    def test_lambda_must_be_positive_and_finite(self, runner, lam):
        # nan wrote nan rows and inf wrote -1, both with exit status 0.
        res = runner.invoke(main, ["transform", "exp", "--map", "S",
                                   "--lam", lam, "--quiet"])
        assert res.exit_code == 1
        assert "lambda must be > 0 and finite" in res.output

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

    def test_grid_is_one_batch(self, runner, monkeypatch):
        radii = []

        def recorded(chi, spec, r, **kwargs):
            radii.append(np.shape(r))
            return turning_bands(chi, spec, r, **kwargs)

        monkeypatch.setattr(tailcorr.cli, "turning_bands", recorded)
        res = runner.invoke(main, ["tb", "tent", "--k", "1", "--d", "3",
                                   "--grid", "0:3:13:lin", "--quiet"])
        assert res.exit_code == 0
        assert radii == [(13,)]
        rows = [(float(a), float(b)) for a, b in csv_rows(res.stdout)]
        assert [r for r, _ in rows] == np.linspace(0.0, 3.0, 13).tolist()
        assert rows[0][1] == 1.0


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
        assert text.splitlines()[1:3] == ["# tol=1e-09",
                                          "test,status,witness,tolerance"]
        statuses = {row[1] for row in csv_rows(text)}
        assert statuses == {"pass"}

    def test_csv_reports_the_tolerance_each_battery_ran_at(self, runner,
                                                           tmp_path):
        out = tmp_path / "verdicts.csv"
        res = runner.invoke(main, ["check", "erfc_sqrt", "--d", "3",
                                   "--out", str(out), "--quiet"])
        assert res.exit_code == 0
        tolerances = {row[0]: float(row[3])
                      for row in csv_rows(out.read_text())}
        assert tolerances["Tinfty_MMMr"] == 1e-9
        assert tolerances["triangle"] == 1e-12


    def test_storm_config_takes_its_taylor_series(self, runner, tmp_path):
        # chi(t) = E[exp(-t S)] is completely monotone and so is
        # -chi'(sqrt t); through difference ladders on quadrature output
        # Tinfty_MMMr refuted this config.
        path = tmp_path / "mps.yaml"
        path.write_text("class: MPS\ndim: 1\n"
                        "mixing: {type: exponential, rate: 3.0}\n")
        assert resolve_function(f"@{path}").taylor is not None
        out = tmp_path / "verdicts.csv"
        res = runner.invoke(main, ["check", f"@{path}", "--d", "1",
                                   "--out", str(out), "--quiet"])
        assert res.exit_code == 0, res.output
        statuses = {row[0]: row[1] for row in csv_rows(out.read_text())}
        assert statuses["Tinfty_MMMr"] == "pass"
        assert statuses["completely_monotone"] == "pass"


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

    @pytest.mark.parametrize("option", [["--tol", "123"], ["--grid", "1:2:3"]])
    def test_estimate_rejects_options_it_does_not_read(self, runner, br_config,
                                                       tmp_path, option):
        fields_csv = tmp_path / "fields.csv"
        runner.invoke(main, ["simulate", br_config, "--grid", "5@0.5",
                             "--n", "100", "--out", str(fields_csv)])
        res = runner.invoke(main, ["estimate", str(fields_csv), "--lags",
                                   "0.5,1", *option])
        assert res.exit_code == 2
        assert "No such option" in res.output

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

    def test_overflowing_grid_names_its_axis(self, runner, br_config):
        res = runner.invoke(main, ["simulate", br_config, "--grid", "4@1e308",
                                   "--n", "2"])
        assert res.exit_code == 1
        assert "Error: grid axis 0 overflows" in res.output

    def test_a_squared_extent_that_overflows_is_named(self, runner,
                                                      br_config):
        res = runner.invoke(main, ["simulate", br_config, "--grid", "4@1e200",
                                   "--n", "2"])
        assert res.exit_code == 1
        assert ("Error: grid extent overflows: its squared extent, the sum "
                "over axes of (spacing * (n - 1))^2, is not finite"
                in res.output)


class TestSeedOption:
    """``--seed`` exists only on the commands that draw random numbers."""

    @pytest.mark.parametrize("command", [
        ["eval", "{config}", "--lags", "1"],
        ["recover", "erfc_sqrt", "--target", "shape"],
        ["transform", "exp", "--map", "R"],
        ["tb", "tent", "--k", "1", "--d", "3"],
        ["estimate", "{config}", "--lags", "1"],
    ], ids=["eval", "recover", "transform", "tb", "estimate"])
    def test_seedless_commands_reject_seed(self, runner, br_config, command):
        args = [a.format(config=br_config) for a in command]
        res = runner.invoke(main, [*args, "--seed", "5"])
        assert res.exit_code == 2
        assert "No such option" in res.output

    @pytest.mark.parametrize("command", ["simulate", "check", "reproduce"])
    def test_seeded_commands_default_to_zero(self, command):
        (option,) = [p for p in main.commands[command].params
                     if p.name == "seed"]
        assert option.default == 0


class TestContentFingerprints:
    """A CSV fingerprint digests what the command read, not the path it
    read it from."""

    @staticmethod
    def _fingerprint(text):
        return csv_header(text).split("fingerprint=")[1]

    def _simulate(self, runner, config, out, seed):
        res = runner.invoke(main, ["simulate", config, "--grid", "4@0.5",
                                   "--n", "100", "--seed", str(seed),
                                   "--out", str(out), "--quiet"])
        assert res.exit_code == 0, res.output

    def _estimate(self, runner, path, lags="0.5,1.0"):
        res = runner.invoke(main, ["estimate", str(path), "--lags", lags,
                                   "--quiet"])
        assert res.exit_code == 0, res.output
        return self._fingerprint(res.stdout)

    def test_estimate_same_bytes_at_two_paths(self, runner, br_config,
                                              tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "sub" / "b.csv"
        self._simulate(runner, br_config, first, seed=1)
        second.parent.mkdir()
        second.write_bytes(first.read_bytes())
        assert self._estimate(runner, first) == self._estimate(runner, second)

    def test_estimate_different_fields_at_one_path(self, runner, br_config,
                                                   tmp_path):
        path = tmp_path / "fields.csv"
        digests = []
        for seed in (1, 2):
            self._simulate(runner, br_config, path, seed=seed)
            digests.append(self._estimate(runner, path))
        assert digests[0] != digests[1]
        assert self._estimate(runner, path, "0.5") != digests[1]

    @pytest.mark.parametrize("command", [
        ["transform", "--map", "R"],
        ["tb", "--k", "1", "--d", "3"],
        ["recover", "--target", "shape", "--d", "1"],
    ])
    def test_config_spec_digests_the_parsed_config(self, runner, tmp_path,
                                                   command):
        def fingerprint(path):
            res = runner.invoke(main, [command[0], "@" + str(path),
                                       *command[1:], "--grid", "0.5:2:3",
                                       "--quiet"])
            assert res.exit_code == 0, res.output
            return self._fingerprint(res.stdout)

        first, moved = tmp_path / "a.yaml", tmp_path / "b.yaml"
        first.write_text(BR_YAML)
        moved.write_text("# the same model, keys in another order\n"
                         "variogram: {alpha: 1.0, scale: 8.0, type: fbm}\n"
                         "dim: 1\nclass: BR\n")
        same = fingerprint(first)
        assert fingerprint(moved) == same
        first.write_text(BR_YAML.replace("8.0", "4.0"))
        assert fingerprint(first) != same

    def test_named_spec_fingerprint_unchanged(self, runner):
        """Named specs still digest the spec text."""
        res = runner.invoke(main, ["transform", "exp", "--map", "R",
                                   "--grid", "0.5:2:3", "--quiet"])
        assert res.exit_code == 0
        blob = '["exp", "R", 1.0]'.encode()
        assert (self._fingerprint(res.stdout)
                == hashlib.sha256(blob).hexdigest()[:12])


class TestToleranceHeader:
    """Outputs computed at different tolerances never share a header."""

    @pytest.mark.parametrize("command", [
        ["eval", "{config}"],
        ["recover", "erfc_sqrt", "--target", "shape", "--d", "2"],
        ["transform", "@{config}", "--map", "S", "--lam", "1.62"],
        ["tb", "tent", "--k", "1", "--d", "3"],
        ["check", "@{config}", "--d", "1", "--max-order", "2", "--out",
         "{out}"],
    ], ids=["eval", "recover", "transform", "tb", "check"])
    def test_tol_line_under_the_header(self, runner, br_config, tmp_path,
                                       command):
        def header(*tol):
            out = tmp_path / "check.csv"
            args = [a.format(config=br_config, out=out) for a in command]
            res = runner.invoke(main, [*args, "--grid", "0.5:2:3", *tol,
                                       "--quiet"])
            assert res.exit_code == 0, res.output
            text = out.read_text() if "--out" in args else res.stdout
            return text.splitlines()[:2]

        default, loose = header(), header("--tol", "1e-3")
        assert default[1] == "# tol=1e-09"
        assert loose[1] == "# tol=0.001"
        assert default[0] == loose[0]


class TestSpecTol:
    """``transform`` and ``check`` pass ``--tol`` only to the TCF of an
    ``@CONFIG.yaml`` FUNCTION, and refuse it with a named one."""

    COMMANDS = {
        "transform": ["transform", "{spec}", "--map", "S", "--grid",
                      "0.5:2:3"],
        "check": ["check", "{spec}", "--d", "1", "--max-order", "2",
                  "--grid", "0.5:2:3", "--out", "{out}"],
    }

    def args(self, command, spec, out):
        return [a.format(spec=spec, out=out) for a in self.COMMANDS[command]]

    @pytest.mark.parametrize("command", ["transform", "check"])
    @pytest.mark.parametrize("tol", ["1e-3", "1e-9"])
    def test_named_function_refuses_an_explicit_tol(self, runner, tmp_path,
                                                    command, tol):
        # Even the default value, given explicitly, is refused.
        out = tmp_path / "out.csv"
        res = runner.invoke(main, [*self.args(command, "tent", out),
                                   "--tol", tol, "--quiet"])
        assert res.exit_code == 2
        assert "--tol applies to an @CONFIG.yaml FUNCTION only" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["transform", "check"])
    def test_named_function_without_tol_runs(self, runner, tmp_path,
                                             command):
        out = tmp_path / "out.csv"
        res = runner.invoke(main, [*self.args(command, "tent", out),
                                   "--quiet"])
        assert res.exit_code == 0, res.output
        text = out.read_text() if command == "check" else res.stdout
        assert text.splitlines()[1] == "# tol=1e-09"

    @pytest.mark.parametrize("command", ["transform", "check"])
    def test_config_function_passes_tol_to_its_tcf(self, runner, br_config,
                                                   tmp_path, monkeypatch,
                                                   command):
        import tailcorr.cli as cli

        seen = []

        def recording(model, *, tol, name):
            seen.append(tol)
            return tcf_radial(model, tol=tol, name=name)

        tcf_radial = cli.tcf_radial
        monkeypatch.setattr(cli, "tcf_radial", recording)
        res = runner.invoke(main, [
            *self.args(command, "@" + br_config, tmp_path / "out.csv"),
            "--tol", "1e-7", "--quiet"])
        assert res.exit_code == 0, res.output
        assert seen == [1e-7]


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

    def test_check_rows_match_point_by_point_evaluation(self):
        # Each check evaluates its points as one array; every row equals
        # the evaluation of its own point alone.
        for name, check in erfc_sqrt_suite().checks.items():
            rows, worst = check.run()
            want_worst = 0.0
            for row, x in zip(rows, check.points.tolist()):
                want = check.closed_form(x)
                if check.computed is None:
                    assert row == (x, want), name
                    continue
                got = check.computed(x)
                gap = abs(got - want)
                if check.relative:
                    gap /= abs(want)
                want_worst = max(want_worst, gap)
                assert row == (x, got, want, gap), name
            assert worst == want_worst

    def test_nan_deviation_fails(self, runner, tmp_path, monkeypatch):
        # A NaN deviation is the worst one: its check fails, and so does
        # reproduce, rather than skipping it.
        points = np.array([0.5, 1.0, 2.0])
        check = Check(("t", "computed", "closed_form", "deviation"), points,
                      lambda t: np.exp(-t),
                      lambda t: np.where(t > 1.5, np.nan, np.exp(-t)),
                      threshold=1e-6)
        rows, worst = check.run()
        assert math.isnan(worst) and math.isnan(rows[-1][-1])
        monkeypatch.setitem(REPRODUCTION_SUITES, "erfc-sqrt", lambda: Suite(
            checks={"nan_check": check}, simulated={}, lags=()))
        out_dir = tmp_path / "nan"
        res = runner.invoke(main, ["reproduce", "erfc-sqrt", "--out-dir",
                                   str(out_dir), "--quiet"])
        assert res.exit_code != 0
        assert csv_rows((out_dir / "summary.csv").read_text()) == [
            ["nan_check", "nan", "9.9999999999999995e-07", "fail"]]

    def test_nan_chi_hat_is_the_worst_margin(self):
        model = BRModel(dim=1, variogram=fbm_variogram(8.0, 1.0))
        estimates = [LagEstimate(lag=0.5, chi_hat=chi, std_err=0.01, n=100,
                                 requested_lag=0.5, clipped=False)
                     for chi in (tcf(model, 0.5), math.nan)]
        rows, worst = Suite.chi_hat(model, estimates)
        assert math.isnan(worst)
        assert [row[-1] for row in rows] == ["pass", "fail"]

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
    def test_import_does_not_load_heavy_scipy_packages(self):
        # Quadrature is the package's own (SciPy's integrate would pull in
        # its linalg, sparse, optimize and spatial packages), the lattice
        # probe sums 1-D autocorrelations without an FFT, and the
        # extremal-coefficient estimators need no scipy.stats.
        src = str(Path(tailcorr.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        heavy = ["scipy.signal", "scipy.integrate", "scipy.fft",
                 "scipy.stats", "scipy.optimize"]
        probe = ("import sys, tailcorr; "
                 f"print([m for m in {heavy!r} if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @staticmethod
    def loaded(code: str) -> list[str]:
        """``scipy.special`` and ``yaml``, whichever are in ``sys.modules``
        when ``code`` has run (or exited) in a fresh interpreter on this
        checkout's sources, in this order."""
        src = str(Path(tailcorr.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        report = ("import atexit, sys\n"
                  "atexit.register(lambda: print([m for m in ('scipy.special',"
                  " 'yaml') if m in sys.modules]))\n")
        out = subprocess.run([sys.executable, "-c", report + code], env=env,
                             capture_output=True, text=True, check=True)
        return eval(out.stdout.splitlines()[-1])

    def test_import_leaves_special_functions_and_yaml_unloaded(self):
        assert self.loaded("import tailcorr") == []

    def test_version_leaves_special_functions_and_yaml_unloaded(self):
        # As ``python -m tailcorr.cli --version``.
        assert self.loaded(
            "import runpy\n"
            "sys.argv = ['tailcorr', '--version']\n"
            "runpy.run_module('tailcorr.cli', run_name='__main__')\n") == []

    def test_grid_simulation_leaves_special_functions_unloaded(self):
        # The models of the benchmark's 32 x 32 grid: their set-up and
        # draws call no special function.
        code = (
            "from tailcorr import (BRModel, GridSpec, SimConfig, presets,\n"
            "                      fbm_variogram, simulate)\n"
            "models = {**presets.erfc_sqrt_models(),\n"
            "          'fbm': BRModel(dim=2, variogram=fbm_variogram(8, 1))}\n"
            "grid = GridSpec(dim=2, shape=(32, 32), spacing=0.25)\n"
            "for name, model in models.items():\n"
            "    if name != 'MPS':  # simulated in d = 1 only\n"
            "        next(iter(simulate(SimConfig(model=model, grid=grid,\n"
            "                                     n_realizations=1,\n"
            "                                     seed=1))))\n")
        assert self.loaded(code) == []

    def test_first_tcf_loads_scipy_special_with_its_bits(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from tailcorr import BRModel, fbm_variogram, tcf\n"
            "lags = np.linspace(0.0, 5.0, 101)\n"
            "model = BRModel(dim=2, variogram=fbm_variogram(8, 1))\n"
            "assert 'scipy.special' not in sys.modules\n"
            "chi = tcf(model, lags)\n"
            "assert 'scipy.special' in sys.modules\n"
            "from scipy.special import erfc\n"
            "direct = erfc(np.sqrt(model.variogram(lags) / 8.0))\n"
            "assert np.array_equal(chi.view(np.int64), direct.view(np.int64))\n")
        assert self.loaded(code) == ["scipy.special"]


class TestGridSpecs:
    @pytest.mark.parametrize("spec", ["1:2", "2:1:5", "0:1:5:log",
                                      "1:2:1", "1:2:5:cubic"])
    def test_bad_evaluation_grids_rejected(self, runner, spec):
        res = runner.invoke(main, ["tb", "tent", "--k", "1", "--d", "3",
                                   "--grid", spec])
        assert res.exit_code != 0

    @pytest.mark.parametrize("command, spec", [
        (["recover", "erfc_sqrt", "--target", "shape"], "nan:1:3"),
        (["tb", "tent", "--k", "1", "--d", "3"], "1:inf:3"),
        (["check", "exp", "--d", "1"], "0.1:nan:5"),
        (["transform", "exp", "--map", "R"], "-inf:1:3:lin"),
    ], ids=["recover", "tb", "check", "transform"])
    def test_non_finite_grid_bound_rejected(self, runner, command, spec):
        # These used to write nan or inf rows, or pass every battery.
        res = runner.invoke(main, [*command, "--grid", spec, "--quiet"])
        assert res.exit_code == 1
        assert (f"grid spec {spec!r} is not a finite increasing range"
                in res.output)

    @pytest.mark.parametrize("spec", ["0:inf:1", "0:nan:1", "0:1:inf",
                                      "nan:1:0.5", "-inf:0:1"])
    def test_non_finite_lag_range_rejected(self, runner, br_config, spec):
        # A traceback (OverflowError, ValueError) or no lags at all before.
        res = runner.invoke(main, ["eval", br_config, "--lags", spec])
        assert res.exit_code == 1
        assert (f"lag spec {spec!r} is not a finite increasing range"
                in res.output)

    def test_more_than_a_million_points_rejected(self):
        # The counts were unbounded, and a huge lag count overflowed.
        assert len(_parse_grid("1:2:1000000")) == 1_000_000
        assert len(_parse_lags("0:999999:1")) == 1_000_000
        for spec in ("1:2:1000001", "0.1:2:1000001:lin"):
            with pytest.raises(ConfigError, match=f"grid spec {spec!r} is "
                               "not .* range of 2 to 1,000,000 points"):
                _parse_grid(spec)
        for spec in ("0:1000000:1", "0:1e300:1e-300"):
            with pytest.raises(ConfigError, match=f"lag spec {spec!r} is "
                               "not .* range of at most 1,000,000 lags"):
                _parse_lags(spec)

    @pytest.mark.parametrize("command", [
        ["eval", "{config}", "--lags", "0.5"],
        ["recover", "erfc_sqrt", "--target", "shape"],
        ["transform", "exp", "--map", "S"],
        ["tb", "tent", "--k", "1", "--d", "3"],
        ["check", "exp", "--d", "1"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
    def test_tol_must_be_positive_and_finite(self, runner, br_config,
                                             command, tol):
        # --tol nan wrote a nan row with exit status 0.
        args = [arg.format(config=br_config) for arg in command]
        res = runner.invoke(main, [*args, "--tol", tol, "--quiet"])
        assert res.exit_code == 2
        assert "must be positive and finite" in res.output

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
