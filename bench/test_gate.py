"""The statistical gate passes correct fields at seeds it was not tuned on
and rejects deliberately biased ones.

    python3 -m pytest bench/test_gate.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
from tailcorr import (GridSpec, M3bModel, SimConfig, estimate_chi,  # noqa: E402
                      simulate, tcf)
from tailcorr.distributions import scale_distribution  # noqa: E402
from tailcorr.presets import bounded_gauss_models, erfc_sqrt_models_1d  # noqa: E402

GRID = GridSpec(dim=1, shape=(9,), spacing=0.5)
LAGS = [0.5, 1.0, 1.5, 2.0]
PAIRS = [(0, 1), (0, 2), (0, 3), (0, 4)]
#: Seeds never used while the gate's bound was chosen.
UNSEEN_SEEDS = (7001, 7002)


def fields(model, n, seed):
    out = list(simulate(SimConfig(model=model, grid=GRID, n_realizations=n,
                                  seed=seed)))
    return out, np.stack([f.values.ravel() for f in out])


def models():
    return {"M3b": erfc_sqrt_models_1d()["M3b"],
            "EBG": bounded_gauss_models(dim=1)["EBG"]}


def judge(values_by_class, truth_models, scale=1.0):
    rows, margins = [], []
    for name, values in values_by_class.items():
        truths = [tcf(truth_models[name], lag) for lag in LAGS]
        rows += gate.chi_rows(name, scale * values, PAIRS, LAGS, truths)
        margins.append(gate.mean_inverse_rows(name, scale * values))
    return gate.judge_z(rows), gate.judge_mean_inverse(margins)


@pytest.fixture(scope="module", params=UNSEEN_SEEDS)
def simulated(request):
    return {name: fields(model, 4000, request.param)
            for name, model in models().items()}


def test_gate_passes_correct_fields(simulated):
    chi, margins = judge({k: v for k, (_, v) in simulated.items()}, models())
    assert chi.passed, chi.describe()
    assert margins.passed, margins.describe()


def test_pair_chi_matches_estimate_chi(simulated):
    for name, (realizations, values) in simulated.items():
        for est, (i, j) in zip(estimate_chi(realizations, LAGS), PAIRS):
            chi_hat, std_err = gate.pair_chi(values, i, j)
            assert est.chi_hat == pytest.approx(min(1.0, max(0.0, chi_hat)),
                                                abs=1e-12)
            assert est.std_err == pytest.approx(std_err, abs=1e-12)


def test_gate_rejects_fields_scaled_by_1_1(simulated):
    chi, margins = judge({k: v for k, (_, v) in simulated.items()}, models(),
                         scale=1.1)
    assert not chi.passed, chi.describe()
    assert not margins.passed, margins.describe()


def test_gate_rejects_misscaled_m3b_radius_law():
    """Balls 1.5 times too large keep exact Frechet margins, so only the
    chi gate can see the bias."""
    model = erfc_sqrt_models_1d()["M3b"]
    biased = M3bModel(dim=1, radius=scale_distribution(model.radius, 1.5))
    _, values = fields(biased, 12_000, UNSEEN_SEEDS[0])
    chi, margins = judge({"M3b": values}, {"M3b": model})
    assert margins.passed, margins.describe()
    assert not chi.passed, chi.describe()


def test_bound_is_family_wise():
    assert gate.z_bound(1) < gate.z_bound(28) < gate.z_bound(1000)
    assert gate.z_bound(1) == pytest.approx(4.4172, abs=1e-3)
    rows = [("a", 0.5 + 4.0 * 0.01, 0.01, 0.5), ("b", 0.3, 0.01, 0.3)]
    assert gate.judge_z(rows).passed
    rows.append(("c", 0.3 + 6.0 * 0.01, 0.01, 0.3))
    verdict = gate.judge_z(rows)
    assert not verdict.passed and verdict.worst_label == "c"
