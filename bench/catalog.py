"""The model instances the workloads and the layer probe run, built only
from ``tailcorr``'s public constructors and presets."""

from __future__ import annotations

import math

import numpy as np

#: The seven classes the exact engine simulates, in a fixed order.
SIM_CLASSES = ("BR", "VBR", "M2r", "M3b", "MPS", "EG", "EBG")

#: The ten model types ``tcf`` evaluates.
TCF_TYPES = ("M2r", "M3r", "M3b", "MPS", "BR", "VBR", "EG", "EBG",
             "parametric", "erfc_mixture")

#: Criterion 8's erfc scale-mixture cases: (row, parameter, lag count).
MIXTURE_CASES = ((1, 1.0, 25), (3, 1.0, 25), (4, 1.0, 25),
                 (2, 0.1, 12), (2, 0.3, 12), (2, 0.49, 12))

#: Gamma(4, 1/8) scale law of the VBR model: non-degenerate, density only,
#: so the engine tabulates its inverse cdf during set-up.
_VBR_SHAPE, _VBR_SCALE = 4.0, 0.125


def vbr_scale_pdf(s: float) -> float:
    if s <= 0.0:
        return 0.0
    return (s ** (_VBR_SHAPE - 1.0) * math.exp(-s / _VBR_SCALE)
            / (math.gamma(_VBR_SHAPE) * _VBR_SCALE ** _VBR_SHAPE))


def vbr_model(tc):
    from tailcorr.distributions import from_pdf
    return tc.VBRModel(dim=1, variogram=tc.fbm_variogram(8.0, 1.0),
                       scale_mixing=from_pdf("gamma(4, 1/8)", vbr_scale_pdf))


def loop_models(tc) -> dict:
    """The seven simulated classes on a 1-D grid: BR and VBR over the
    fbm(8, 1) variogram, the erfc-sqrt moving-maxima presets, storms over
    the arctan intensity law, and the bounded-gauss EG / EBG pair."""
    from tailcorr import presets
    one_d = presets.erfc_sqrt_models_1d()
    gauss = presets.bounded_gauss_models(dim=1)
    return {
        "BR": tc.BRModel(dim=1, variogram=tc.fbm_variogram(8.0, 1.0)),
        "VBR": vbr_model(tc),
        "M2r": one_d["M2r"],
        "M3b": one_d["M3b"],
        "MPS": tc.MPSModel(dim=1, mixing=presets.erfc_sqrt_mps_mixing()),
        "EG": gauss["EG"],
        "EBG": gauss["EBG"],
    }


def grid_models(tc) -> dict:
    """The classes simulated on the 32 x 32 grid: the d = 3 erfc-sqrt
    moving-maxima presets and BR over fbm(8, 1), all hosting a 2-D grid."""
    from tailcorr import presets
    three_d = presets.erfc_sqrt_models()
    return {
        "M2r": three_d["M2r"],
        "M3b": three_d["M3b"],
        "BR": tc.BRModel(dim=2, variogram=tc.fbm_variogram(8.0, 1.0)),
    }


def _erfc_sqrt(t):
    from scipy.special import erfc
    return erfc(np.sqrt(t))


def _bounded_gauss(t):
    from scipy.special import erfc
    return erfc(0.45 * np.sqrt(-np.expm1(-np.asarray(t))))


def _ball_overlap_2d(t):
    x = np.minimum(np.asarray(t) / 2.0, 1.0)
    return (2.0 / math.pi) * (np.arccos(x) - x * np.sqrt(1.0 - x * x))


def _vbr_reference(t):
    from scipy import integrate
    from scipy.special import erfc
    out = []
    for lag in np.atleast_1d(t):
        root = math.sqrt(float(lag))
        value, _ = integrate.quad(
            lambda s: float(erfc(s * root)) * vbr_scale_pdf(s), 0.0, math.inf,
            epsabs=1e-13, epsrel=1e-12, limit=200)
        out.append(value)
    return np.array(out)


def tcf_models(tc) -> dict:
    """``type -> [(model, lags, reference, tolerance), ...]`` for the
    ``analytic`` sweep.  Each reference is an independent closed form or
    SciPy quadrature; the erfc_mixture cases are criterion 8's."""
    from tailcorr import presets
    from tailcorr.models import M3rModel, ParametricModel, ShapeEnsemble
    from tailcorr.models import erfc_mixture
    three_d = presets.erfc_sqrt_models()
    gauss = presets.bounded_gauss_models(dim=1)
    ball = tc.ball_indicator(2, 1.0)
    lags = np.geomspace(0.01, 5.0, 200)
    cases = {
        "M2r": [(three_d["M2r"], lags, _erfc_sqrt, 1e-6)],
        "M3r": [(M3rModel(dim=2, ensemble=ShapeEnsemble(
            name="unit_disc", sample=lambda rng: ball), n_samples=2),
            lags, _ball_overlap_2d, 1e-8)],
        "M3b": [(three_d["M3b"], lags, _erfc_sqrt, 1e-6)],
        "MPS": [(three_d["MPS"], lags, _erfc_sqrt, 1e-6)],
        "BR": [(three_d["BR"], lags, _erfc_sqrt, 1e-12)],
        "VBR": [(vbr_model(tc), lags, _vbr_reference, 1e-7)],
        "EG": [(gauss["EG"], lags, _bounded_gauss, 1e-12)],
        "EBG": [(gauss["EBG"], lags, _bounded_gauss, 1e-12)],
        "parametric": [(ParametricModel(dim=1, family="whittle_matern",
                                        nu=0.5),
                        lags, lambda t: np.exp(-np.asarray(t)), 1e-12)],
        "erfc_mixture": [],
    }
    for row, param, count in MIXTURE_CASES:
        model = erfc_mixture(row, param)
        cases["erfc_mixture"].append(
            (model, np.geomspace(0.01, 10.0, count),
             lambda t, f=model.closed_form: np.array([f(float(v)) for v in t]),
             1e-6))
    return cases


def candidates(tc) -> dict:
    """``name -> (function, d, batteries expected to refute it)`` for
    ``classify``: three candidates that pass every battery and five that
    are refuted, some early and some only by the later batteries."""
    return {
        "erfc_sqrt_d3": (tc.erfc_sqrt(), 3, set()),
        "erfc_pow0.4_d1": (tc.powered_erfc(0.4), 1, set()),
        "cauchy1_d2": (tc.generalized_cauchy(1.0), 2, set()),
        "erfc_pow0.8_d3": (tc.powered_erfc(0.8), 3,
                           {"completely_monotone", "mps_family_rule"}),
        "trunc_pow2_d3": (tc.truncated_power(2.0), 3,
                          {"completely_monotone", "Tinfty_MMMr",
                           "vbr_support_rule"}),
        "trunc_pow1.5_d3": (tc.truncated_power(1.5), 3,
                            {"completely_monotone", "positive_definite",
                             "Tinfty_MMMr", "H3_condition",
                             "vbr_support_rule"}),
        "tent_d1": (tc.tent(), 1, {"completely_monotone", "Tinfty_MMMr",
                                   "vbr_support_rule"}),
        "tent_d3": (tc.tent(), 3, {"completely_monotone", "positive_definite",
                                   "Tinfty_MMMr", "vbr_support_rule"}),
    }
