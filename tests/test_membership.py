"""Tests for the necessary-condition membership batteries."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import factorial

from conftest import assert_entrywise

from tailcorr import cli, membership, models, numerics
from tailcorr.errors import DomainError
from tailcorr.membership import (
    _chunks,
    _derivative_table,
    _eigmin_uncertified,
    _lattice_rayleigh,
    _moment_matrix_stage,
    _neg_deriv_sqrt,
    _random_configuration,
    _safe_num_derivs,
    DEFAULT_GRID,
    LatticeProbeWitness,
    MembershipReport,
    MomentMatrixWitness,
    Verdict,
    classify,
    spectral_density,
    test_completely_monotone,
    test_H2_condition,
    test_H3_condition,
    test_positive_definite,
    test_T1_MMMr,
    test_Tinfty_MMMr,
    test_triangle,
)
from tailcorr.distributions import exponential_dist
from tailcorr.models import (M3bModel, MPSModel, h_d, laplace_factor, tcf,
                             tcf_radial)
from tailcorr.operators import (
    chi_d_radial,
    erf_square_complement_radial,
    phi_d_radial,
)
from tailcorr.radial import (
    erfc_sqrt,
    exponential_decay,
    generalized_cauchy,
    powered_erfc,
    powered_exponential,
    RadialFunction,
    radial_from_callable,
    tent,
    truncated_power,
    whittle_matern,
)


def cubic_cutoff():
    """max(0, 1 - r^3): decays too slowly near 0 to satisfy the triangle
    inequality, hence not a TCF despite being continuous and decreasing."""
    return radial_from_callable(
        "cubic_cutoff", lambda r: max(0.0, 1.0 - r**3),
        kinks=(1.0,), support_bound=1.0)


def h3_radial():
    """The unit-ball overlap TCF h_3 wrapped for the batteries."""
    return radial_from_callable(
        "h_3", lambda t: h_d(t, 3), kinks=(1.0,), support_bound=1.0)


def narrow_bump(center):
    """exp(-x) plus a tent of height and half-width 1e-3 at ``center``: a
    grid that lands on the tent holds no moment sequence, and most grids
    step over it."""
    return radial_from_callable(
        "bump", lambda x: math.exp(-x) + 1e-3 * max(
            0.0, 1.0 - abs(x - center) / 1e-3))


def moment_stage_by_grid(f, tol=1e-9):
    """Reference Hankel stage: grid by grid, start outer and spacing inner,
    one eigenvalue call per matrix; the witness of the first failure."""
    n = 14
    idx = np.arange(n + 1)
    for x0 in np.geomspace(0.01, 5.0, 13):
        for h in np.geomspace(0.01, 2.0, 13):
            m = f(x0 + h * np.arange(2 * n + 2))
            eigmin = float(min(
                np.linalg.eigvalsh(m[idx[:, None] + idx[None, :]])[0],
                np.linalg.eigvalsh(m[idx[:, None] + idx[None, :] + 1])[0]))
            if eigmin < -max(tol, 1e-12 * max(1.0, abs(float(m[0])))):
                return MomentMatrixWitness(start=float(x0), spacing=float(h),
                                           size=n + 1, eigmin=eigmin)
    return None


def complete_monotonicity_by_loop(f, max_order, tol=1e-9):
    """Reference complete-monotonicity battery on DEFAULT_GRID: the sign
    stage walks grid point by grid point and order by order, stopping at
    the first refutation; the largest straddle makes it inconclusive.  A
    function with a Taylor hook takes it point by point."""
    if f.has_compact_support:
        return Verdict("fail", f.support_bound,
                       "compact support excludes complete monotonicity")
    if f.taylor is not None:
        return _series_signs_by_loop(f, max_order, tol)
    grid = np.array(DEFAULT_GRID)
    values = f(grid)
    off_kink = ~f._on_kink(grid)
    analytic = {}
    for k in range(1, min(max_order, 3) + 1):
        if (f.deriv1, f.deriv2, f.deriv3)[k - 1] is not None:
            analytic[k] = np.full(grid.shape, np.nan)
            analytic[k][off_kink] = f.derivative(grid[off_kink], k)
    numeric = {k: _safe_num_derivs(f, grid, k)
               for k in range(1, max_order + 1) if k not in analytic}
    straddles = []
    for i, (x, v0) in enumerate(zip(DEFAULT_GRID, values)):
        if v0 < -tol:
            return Verdict("fail", (x, 0, float(v0)), "negative value")
        for k in range(1, max_order + 1):
            sign = (-1.0) ** k
            if k in analytic:
                value = float(analytic[k][i])
                if sign * value < -tol:
                    return Verdict("fail", (x, k, value),
                                   f"order-{k} derivative has the wrong sign")
                continue
            value, err = (float(v[i]) for v in numeric[k])
            if math.isnan(value) or err >= 0.5 * abs(value):
                continue
            if sign * value < -tol:
                if abs(value) > 3.0 * err:
                    return Verdict("fail", (x, k, value),
                                   f"order-{k} derivative has the wrong sign")
                straddles.append((x, k, value, err))
    stage_two = _moment_matrix_stage(f, tol)
    if stage_two is not None:
        return stage_two
    if straddles:
        x, k, v, e = max(straddles, key=lambda s: abs(s[2]))
        return Verdict("inconclusive", reason=(
            f"order-{k} derivative at x={x:.4g} is {v:.3g} with error bar "
            f"{e:.3g}: sign indeterminate"))
    return Verdict("pass")


def _series_signs_by_loop(f, max_order, tol):
    """The reference sign stage of a function with a Taylor hook: one hook
    call per grid point, k! c_k with k! times its bound (plus the rounding
    of that product) as error bar, and the rules of the Ridders route."""
    straddles = []
    for x in DEFAULT_GRID:
        coef, bound = f.taylor(np.array([x]), max_order)
        for k in range(max_order + 1):
            value = math.factorial(k) * float(coef[k, 0])
            err = (math.factorial(k) * float(bound[k, 0])
                   + 0.5 * np.finfo(float).eps * abs(value))
            if err >= 0.5 * abs(value) or (-1.0) ** k * value >= -tol:
                continue
            if abs(value) > 3.0 * err:
                return Verdict("fail", (x, k, value),
                               f"order-{k} derivative has the wrong sign"
                               if k else "negative value")
            straddles.append((x, k, value, err))
    stage_two = _moment_matrix_stage(f, tol)
    if stage_two is not None:
        return stage_two
    if straddles:
        x, k, v, e = max(straddles, key=lambda s: abs(s[2]))
        return Verdict("inconclusive", reason=(
            f"order-{k} derivative at x={x:.4g} is {v:.3g} with error bar "
            f"{e:.3g}: sign indeterminate"))
    return Verdict("pass")


def gram_stage_by_configuration(chi, d, seed, n_configs=50, n_points=8,
                                tol=1e-9):
    """Reference Gram stage: configuration by configuration, one eigenvalue
    call per matrix; the (index, sites, eigmin) of the first failure."""
    rng = np.random.default_rng(seed)
    for index in range(n_configs):
        sites = _random_configuration(rng, index, n_points, d)
        diff = sites[:, None, :] - sites[None, :, :]
        gram = chi(np.sqrt((diff ** 2).sum(-1)))
        eigmin = float(np.linalg.eigvalsh(gram)[0])
        if eigmin < -tol:
            return index, sites, eigmin
    return None


def lattice_rayleigh_brute_force(chi, omega, h, shape, sig1, sigt):
    """v^T G v / v^T v with the whole Gram matrix G of the lattice."""
    axes = [(np.arange(n) - (n - 1) / 2.0) * h for n in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    window = mesh[0] ** 2 / (2.0 * sig1 ** 2)
    for m in mesh[1:]:
        window = window + m ** 2 / (2.0 * sigt ** 2)
    v = (np.cos(omega * mesh[0]) * np.exp(-window)).ravel()
    sites = np.stack([m.ravel() for m in mesh], axis=1)
    diff = sites[:, None, :] - sites[None, :, :]
    gram = chi(np.sqrt((diff ** 2).sum(-1)))
    return float(v @ gram @ v) / float(v @ v)


class TestVerdict:
    def test_status_values(self):
        assert Verdict("pass").passed
        assert Verdict("fail", witness=1.0).failed
        assert Verdict("inconclusive", reason="x").status == "inconclusive"

    def test_unknown_status_rejected(self):
        with pytest.raises(DomainError):
            Verdict("maybe")

    def test_fail_requires_witness(self):
        with pytest.raises(DomainError):
            Verdict("fail")

    def test_pass_is_not_fail(self):
        v = Verdict("pass")
        assert not v.failed


class TestT1:
    @pytest.mark.parametrize("chi", [erfc_sqrt(), tent(), exponential_decay()])
    def test_known_members_pass(self, chi):
        assert test_T1_MMMr(chi).passed

    def test_gaussian_fails_convexity(self):
        # e^{-t^2} is concave on [0, 1/sqrt(2)); the witness triple must
        # land inside that region.
        verdict = test_T1_MMMr(powered_exponential(2.0))
        assert verdict.failed
        a, mid, b, gap = verdict.witness
        assert 0 < a < mid < b < 1.0 / math.sqrt(2.0)
        assert gap > 1e-9

    def test_wrong_value_at_zero_fails(self):
        half = radial_from_callable("half_tent",
                                    lambda r: 0.5 * max(0.0, 1.0 - r))
        verdict = test_T1_MMMr(half)
        assert verdict.failed
        assert verdict.witness[0] == 0.0

    def test_value_above_one_fails(self):
        bumped = radial_from_callable(
            "bumped", lambda r: 1.0 / (1.0 + r) + 2.0 * r * math.exp(-r))
        verdict = test_T1_MMMr(bumped)
        assert verdict.failed
        assert verdict.witness[1] > 1.0

    def test_slow_decay_is_inconclusive(self):
        verdict = test_T1_MMMr(exponential_decay(30.0))
        assert verdict.status == "inconclusive"
        assert "decay" in verdict.reason

    def test_no_decay_fails(self):
        verdict = test_T1_MMMr(exponential_decay(200.0))
        assert verdict.failed

    def test_grid_must_be_increasing(self):
        with pytest.raises(DomainError):
            test_T1_MMMr(tent(), grid=[2.0, 1.0, 3.0])

    def test_grid_needs_three_points(self):
        with pytest.raises(DomainError):
            test_T1_MMMr(tent(), grid=[1.0, 2.0])


class TestCompletelyMonotone:
    @pytest.mark.parametrize("f,order", [
        (exponential_decay(), 8),
        (erfc_sqrt(), 6),
        (generalized_cauchy(1.0), 6),
        (whittle_matern(0.4), 4),
        (powered_exponential(0.7), 6),
    ])
    def test_known_members_pass(self, f, order):
        assert test_completely_monotone(f, order).passed

    def test_non_finite_value_on_a_moment_grid_is_named(self):
        # NumPy's eigenvalue routine used to fail on the NaN instead.
        f = radial_from_callable(
            "nan_tail", lambda x: math.exp(-x) if x < 40 else float("nan"))
        with pytest.raises(DomainError,
                           match=r"'nan_tail' is not finite at x = 40\.01 "):
            test_completely_monotone(f, 6, grid=[0.1, 1.0, 10.0])

    def test_erfc_fails_at_order_three(self):
        # d^3/dr^3 erfc(r) = -(2/sqrt(pi)) (4r^2 - 2) e^{-r^2} tends to
        # +4/sqrt(pi) at 0, so the signed value (-1)^3 f''' is negative.
        verdict = test_completely_monotone(powered_erfc(1.0), 6)
        assert verdict.failed
        x, order, value = verdict.witness
        assert order == 3
        assert x < 0.7
        assert value == pytest.approx(4.0 / math.sqrt(math.pi), abs=1e-4)

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.4, 0.5,
                                       0.6, 0.7, 0.8, 0.9, 1.0])
    def test_powered_erfc_iff_alpha_below_half(self, alpha):
        verdict = test_completely_monotone(powered_erfc(alpha), 6)
        if alpha <= 0.5:
            assert verdict.passed
        else:
            assert verdict.failed

    def test_shallow_violation_caught_by_moment_matrices(self):
        # The first wrong-signed derivative of erfc(t^0.6) lies beyond
        # order 12, far out of reach of the derivative stage; the Hankel
        # stage refutes it through the moment-sequence criterion.
        verdict = test_completely_monotone(powered_erfc(0.6), 6)
        assert verdict.failed
        witness = verdict.witness
        assert isinstance(witness, MomentMatrixWitness)
        assert witness.eigmin < -1e-9
        assert witness.size == 15

    @pytest.mark.parametrize("f", [powered_erfc(0.6), powered_erfc(0.7),
                                   powered_erfc(0.52), phi_d_radial(3),
                                   narrow_bump(0.68), erfc_sqrt(),
                                   exponential_decay()],
                             ids=["erfc0.6", "erfc0.7", "erfc0.52", "phi_3",
                                  "bump0.68", "erfc_sqrt", "exp"])
    def test_moment_witness_matches_loop_by_grid(self, f):
        # erfc(t^0.52) first fails at the 8th grid and the bump at the
        # 105th (the ninth start), past the first chunks; the last two
        # pass every grid.
        verdict = _moment_matrix_stage(f, 1e-9)
        witness = moment_stage_by_grid(f)
        if witness is None:
            assert verdict is None
        else:
            assert verdict.witness == witness

    @pytest.mark.parametrize("f", [
        erfc_sqrt(), powered_erfc(0.4), generalized_cauchy(1.0),
        powered_erfc(0.8), truncated_power(2.0), truncated_power(1.5),
        tent(), phi_d_radial(3), chi_d_radial(3),
        erf_square_complement_radial(), exponential_decay(),
        whittle_matern(0.3), whittle_matern(1.5), generalized_cauchy(2.0),
        powered_exponential(1.5)], ids=lambda f: f.name)
    @pytest.mark.parametrize("lift", [False, True], ids=["f", "neg_deriv_sqrt"])
    def test_signs_match_loop_by_point_and_order(self, f, lift):
        if lift:
            f = _neg_deriv_sqrt(f)
        for max_order in range(9):
            assert (test_completely_monotone(f, max_order)
                    == complete_monotonicity_by_loop(f, max_order))

    def test_straddle_matches_loop(self):
        # Noise of 1e-15 leaves a few high-order signs within their error
        # bars: the largest such straddle makes the verdict inconclusive.
        f = radial_from_callable(
            "noisy_exp", lambda x: math.exp(-x) + 1e-15 * math.sin(1e5 * x))
        verdict = test_completely_monotone(f, 4)
        assert verdict.status == "inconclusive"
        assert verdict == complete_monotonicity_by_loop(f, 4)

    def test_compact_support_refuted_outright(self):
        verdict = test_completely_monotone(tent(), 4)
        assert verdict.failed
        assert verdict.witness == 1.0
        assert "compact support" in verdict.reason

    @pytest.mark.parametrize("order", [-1, 9])
    def test_order_out_of_range(self, order):
        with pytest.raises(DomainError):
            test_completely_monotone(exponential_decay(), order)

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(min_value=0.05, max_value=0.5))
    def test_never_refutes_true_members(self, alpha):
        assert test_completely_monotone(powered_erfc(alpha), 6).passed

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(min_value=0.6, max_value=1.0))
    def test_always_refutes_clear_nonmembers(self, alpha):
        # Resolution limit sits near alpha = 0.52; above 0.6 the batteries
        # must refute every time.
        assert test_completely_monotone(powered_erfc(alpha), 6).failed


class TestTinfty:
    @pytest.mark.parametrize("phi", [erfc_sqrt(), exponential_decay(),
                                     powered_erfc(1.0)])
    def test_known_members_pass(self, phi):
        assert test_Tinfty_MMMr(phi, 6).passed

    def test_tent_fails_by_compact_support(self):
        verdict = test_Tinfty_MMMr(tent(), 6)
        assert verdict.failed
        assert verdict.witness == 1.0

    def test_chi_3_fails_by_compact_support(self):
        assert test_Tinfty_MMMr(chi_d_radial(3), 6).failed

    def test_gaussian_fails_at_order_one(self):
        # -d/dr[e^{-r^2}](sqrt t) = 2 sqrt(t) e^{-t} increases near 0.
        verdict = test_Tinfty_MMMr(powered_exponential(2.0), 4)
        assert verdict.failed
        assert verdict.witness[1] == 1

    @staticmethod
    def mps_exponential_3():
        return tcf_radial(MPSModel(dim=1, mixing=exponential_dist(3.0)))

    def test_mps_tcf_is_completely_monotone(self):
        assert test_completely_monotone(self.mps_exponential_3()).passed

    def test_mps_tcf_passes(self):
        # chi(t) = E[exp(-t S)] gives -chi'(sqrt t) = E[S exp(-S sqrt t)],
        # completely monotone for every mixing law, as the test above
        # confirms for chi itself.
        assert test_Tinfty_MMMr(self.mps_exponential_3()).passed


class TestMPSTaylor:
    """The MPS TCF carries its Taylor series, E[(-cS)^k e^(-ctS)] / k!, so
    the batteries take no derivative from quadrature output."""

    RATES = (0.433, 1.0, 1.13, 1.5, 2.0, 3.0, 4.12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("rate", [0.433, 1.0, 4.12])
    def test_coefficients_match_the_closed_form(self, rate, dim):
        # chi(t) = 1 / (1 + ct/rate) for an exponential mixing law.
        chi = tcf_radial(MPSModel(dim=dim, mixing=exponential_dist(rate)))
        c = laplace_factor(dim)
        t = np.geomspace(1e-3, 20.0, 50)
        coef, bound = chi.taylor(t, 8)
        k = np.arange(9.0)[:, None]
        exact = (-c / rate) ** k / (1.0 + c * t / rate) ** (k + 1.0)
        assert coef.shape == bound.shape == (9, 50)
        # Each moment is one integral at the mixed absolute and relative
        # tolerance 1e-9, and coefficient k is that moment over k!.
        scale = 1e-8 * np.maximum(np.abs(exact), 1.0 / factorial(k))
        assert np.all(np.abs(coef - exact) <= scale)
        assert np.all((bound >= 0.0) & (bound <= scale))

    def test_coefficient_zero_is_the_tcf(self):
        model = MPSModel(dim=2, mixing=exponential_dist(1.5))
        t = np.array([0.01, 0.3, 2.0])
        np.testing.assert_allclose(tcf_radial(model).taylor(t, 0)[0][0],
                                   tcf(model, t), rtol=1e-12)

    @staticmethod
    def refuse_ladders(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a difference ladder was called")

        monkeypatch.setattr(membership, "num_derivative", refuse)
        for name in ("num_derivative", "_ridders", "_ridders_at"):
            monkeypatch.setattr(numerics, name, refuse)

    @pytest.mark.parametrize("rate", RATES)
    def test_tinfty_passes_without_numeric_derivatives(self, rate,
                                                       monkeypatch):
        self.refuse_ladders(monkeypatch)
        chi = tcf_radial(MPSModel(dim=1, mixing=exponential_dist(rate)))
        assert test_Tinfty_MMMr(chi).passed

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_classify_takes_no_difference_ladder(self, d, monkeypatch):
        self.refuse_ladders(monkeypatch)
        chi = tcf_radial(MPSModel(dim=d, mixing=exponential_dist(3.0)))
        report = classify(chi, d)
        assert report.verdicts["Tinfty_MMMr"].passed
        assert report.verdicts["completely_monotone"].passed

    def test_other_classes_give_func_only(self):
        chi = tcf_radial(M3bModel(dim=1, radius=exponential_dist(2.0)))
        assert chi.taylor is None
        assert chi.name == "tcf[M3b]"
        assert chi(0.4) == tcf(M3bModel(dim=1, radius=exponential_dist(2.0)),
                               0.4)


class TestTaylorRoute:
    """A candidate with a Taylor hook takes every sign of stage one from
    one call of the hook per battery, and no Ridders ladder anywhere."""

    ROUTED = [(erfc_sqrt(), 3), (powered_erfc(0.4), 1),
              (generalized_cauchy(1.0), 2), (powered_erfc(0.8), 3),
              (exponential_decay(), 1), (powered_exponential(0.5), 2)]

    @pytest.mark.parametrize("chi, d", ROUTED,
                             ids=[f"{c.name}-d{d}" for c, d in ROUTED])
    def test_classify_makes_no_numeric_derivative(self, chi, d, monkeypatch):
        ladders, hooks = [], []
        real = numerics.num_derivative

        def counting(*args, **kwargs):
            ladders.append(args[2] if len(args) > 2 else kwargs["order"])
            return real(*args, **kwargs)

        def hook(x, order):
            hooks.append((order, np.size(x)))
            return chi.taylor(x, order)

        monkeypatch.setattr(membership, "num_derivative", counting)
        monkeypatch.setattr(numerics, "num_derivative", counting)
        classify(dataclasses.replace(chi, taylor=hook), d)
        assert ladders == []
        # One call on the grid for completely_monotone (order 6) and one
        # for the hook of -phi'(sqrt t) in Tinfty_MMMr (order 6 + 2).
        assert sorted(hooks) == [(6, len(DEFAULT_GRID)),
                                 (8, len(DEFAULT_GRID))]

    @pytest.mark.parametrize("alpha, x, order", [
        (0.8, 0.8703591361485166, 5), (0.9, 0.41026581058271944, 4),
        (1.0, 0.001, 3)])
    def test_stage_one_witnesses_of_the_ladders(self, alpha, x, order):
        # The grid point and order the Ridders route found.
        verdict = test_completely_monotone(powered_erfc(alpha))
        assert verdict.witness[:2] == (x, order)

    @pytest.mark.parametrize("f", [powered_erfc(0.4), erfc_sqrt(),
                                   _neg_deriv_sqrt(powered_erfc(0.4))],
                             ids=["erfc0.4", "erfc_sqrt", "neg_deriv_sqrt"])
    def test_resolves_every_sign_the_ladders_resolve(self, f):
        # Only signs are compared: the ladders are up to 1 % off at order
        # 6 near r = 1e-3, and their error estimates are no bounds (for
        # erfc(sqrt r) at order 4 and r = 0.8214 the ladder is 1.4e-6 off
        # with an estimate of 8.5e-9).
        grid = np.array(DEFAULT_GRID)
        series, _ = _derivative_table(f, grid, 6)
        ladder, _ = _derivative_table(dataclasses.replace(f, taylor=None),
                                      grid, 6)
        assert not np.any(np.isnan(series) & ~np.isnan(ladder))
        both = ~np.isnan(ladder)
        assert both[:, 4:].sum() > 100
        assert np.array_equal(np.sign(series[both]), np.sign(ladder[both]))


class TestTriangle:
    def test_erfc_sqrt_passes(self):
        assert test_triangle(erfc_sqrt()).passed

    def test_closed_form_instance(self):
        # The s = t = 1 case of the inequality for erfc(sqrt(t)):
        # erf(sqrt(2)) <= 2 erf(1), i.e. 0.9545 <= 1.6854.
        assert math.erf(math.sqrt(2.0)) <= 2.0 * math.erf(1.0)

    def test_constant_one_passes(self):
        ones = radial_from_callable("one", lambda r: 1.0)
        assert test_triangle(ones).passed

    def test_cubic_cutoff_fails(self):
        verdict = test_triangle(cubic_cutoff())
        assert verdict.failed
        s, t, lag, value, bound = verdict.witness
        assert value > bound

    def test_explicit_pair(self):
        # eta(1) = 1 against eta(1/2) + eta(1/2) = 1/4.
        verdict = test_triangle(cubic_cutoff(), pairs=[(0.5, 0.5)])
        assert verdict.failed
        assert verdict.witness[2] == 1.0
        assert verdict.witness[3] == pytest.approx(1.0)
        assert verdict.witness[4] == pytest.approx(0.25)

    def test_first_violation_in_pair_order_sum_lag_first(self):
        # eta = 1 on [0.1, 0.15) and [0.5, 0.6), else 0.
        def chi(r):
            return 0.0 if 0.1 <= r < 0.15 or 0.5 <= r < 0.6 else 1.0

        bands = radial_from_callable("bands", chi)
        # Pair 0 violates only at |s - t|, pair 1 at both lags.
        verdict = test_triangle(bands, pairs=[(0.2, 0.09), (0.35, 0.2)])
        assert verdict.witness == (0.2, 0.09, abs(0.2 - 0.09), 1.0, 0.0)
        verdict = test_triangle(bands, pairs=[(0.35, 0.2)])
        assert verdict.witness == (0.35, 0.2, 0.35 + 0.2, 1.0, 0.0)


class TestPositiveDefinite:
    def test_erfc_sqrt_passes(self):
        assert test_positive_definite(erfc_sqrt(), 3).passed

    def test_truncated_power_two_passes(self):
        assert test_positive_definite(truncated_power(2.0), 3).passed

    def test_truncated_power_three_halves_fails_with_certificate(self):
        verdict = test_positive_definite(truncated_power(1.5), 3)
        assert verdict.failed
        witness = verdict.witness
        assert isinstance(witness, LatticeProbeWitness)
        # The spectral density of (1-r)_+^{1.5} in d=3 dips negative on
        # roughly [7.7, 9.1]; the certified Rayleigh quotient is far below
        # any roundoff scale.
        assert 7.5 < witness.omega < 9.2
        assert witness.spectral_value < -1e-3
        assert witness.rayleigh < -1.0

    def test_truncated_power_below_fails_harder(self):
        verdict = test_positive_definite(truncated_power(1.2), 3)
        assert verdict.failed
        assert verdict.witness.rayleigh < -1.0

    def test_cubic_cutoff_fails_on_random_stage(self):
        verdict = test_positive_definite(cubic_cutoff(), 3)
        assert verdict.failed
        index, sites, eigmin = verdict.witness
        assert eigmin < -0.01
        assert sites.shape[1] == 3

    def test_collinear_gram_oracle(self):
        # Three collinear points 0, 1/2, 1 under the cubic cutoff give the
        # Gram matrix [[1, 7/8, 0], [7/8, 1, 7/8], [0, 7/8, 1]] whose
        # minimum eigenvalue is 1 - (7/8) sqrt(2): ladder configurations
        # expose triangle-type violations that cubes may miss.
        gram = np.array([[1.0, 0.875, 0.0],
                         [0.875, 1.0, 0.875],
                         [0.0, 0.875, 1.0]])
        eigmin = np.linalg.eigvalsh(gram)[0]
        assert eigmin == pytest.approx(1.0 - 0.875 * math.sqrt(2.0), abs=1e-12)
        assert eigmin < -0.23

    @pytest.mark.parametrize("chi,d", [
        (tent(), 1),
        (chi_d_radial(3), 3),
        (h3_radial(), 3),
    ])
    def test_compact_members_pass_both_stages(self, chi, d):
        assert test_positive_definite(chi, d).passed

    def test_seed_determinism(self):
        first = test_positive_definite(truncated_power(1.5), 3, seed=7)
        second = test_positive_definite(truncated_power(1.5), 3, seed=7)
        assert first.witness == second.witness

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            test_positive_definite(tent(), 0)

    def test_config_count_guard(self):
        with pytest.raises(DomainError):
            test_positive_definite(tent(), 1, n_configs=0)

    @pytest.mark.parametrize("d,seed", [(1, 0), (3, 0), (3, 4)])
    def test_gram_witness_matches_loop_by_configuration(self, d, seed):
        # Seed 4 in d = 3 first fails at the second configuration.
        verdict = test_positive_definite(cubic_cutoff(), d, seed=seed)
        index, sites, eigmin = verdict.witness
        ref_index, ref_sites, ref_eigmin = gram_stage_by_configuration(
            cubic_cutoff(), d, seed)
        assert (index, eigmin) == (ref_index, ref_eigmin)
        assert sites.tobytes() == ref_sites.tobytes()
        assert type(index) is int and type(eigmin) is float

    @pytest.mark.parametrize("chi,d", [(erfc_sqrt(), 3), (tent(), 1),
                                       (truncated_power(2.0), 3)])
    def test_gram_stage_passes_where_loop_passes(self, chi, d):
        assert gram_stage_by_configuration(chi, d, 0) is None
        assert test_positive_definite(chi, d).passed

    def test_gram_witness_keeps_its_bits(self):
        # Pinned: the first configuration refuted for the cubic cutoff in
        # d = 3 at seed 4, its sites and its smallest eigenvalue.
        index, sites, eigmin = test_positive_definite(cubic_cutoff(), 3,
                                                      seed=4).witness
        assert index == 1
        assert hashlib.sha256(sites.tobytes()).hexdigest() == (
            "3e41ad7df8b9b38f358c281b04bfc36b"
            "68f88568e1122a7113be698f2e9c04b3")
        assert eigmin.hex() == "-0x1.a591945782e42p-2"


def uniform_configuration(rng, index, n_points, d):
    """_random_configuration written with rng.uniform and np.outer."""
    kind = index % 3
    if kind == 0:
        side = float(np.exp(rng.uniform(np.log(0.5), np.log(4.0))))
        return rng.uniform(0.0, side, (n_points, d))
    if kind == 1:
        step = float(np.exp(rng.uniform(np.log(0.05), np.log(1.0))))
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        return np.outer(np.arange(n_points) * step, direction)
    scale = float(np.exp(rng.uniform(np.log(0.1), np.log(1.0))))
    return rng.standard_normal((n_points, d)) * scale


class TestSeededDesigns:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("n_points", [1, 8])
    def test_configurations_keep_the_uniform_draws_bits(self, d, n_points):
        for seed in range(20):
            ours = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            for index in range(50):
                sites = _random_configuration(ours, index, n_points, d)
                assert sites.tobytes() == uniform_configuration(
                    ref, index, n_points, d).tobytes()
                assert sites.shape == (n_points, d)

    @pytest.mark.parametrize("name", ["_MOMENT_STARTS", "_MOMENT_SPACINGS",
                                      "_MOMENT_STEPS", "_HANKEL"])
    def test_moment_design_is_read_only(self, name):
        array = getattr(membership, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def with_eigmin(rng, n, eigmin):
    """A symmetric n x n matrix with smallest eigenvalue ``eigmin`` and the
    others in [0.5, 2]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.append(eigmin, rng.uniform(0.5, 2.0, n - 1))) @ q.T
    return 0.5 * (a + a.T)


def counting_eigvalsh(monkeypatch):
    """Wrap np.linalg.eigvalsh; the list collects the shape of each call."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


class TestCholeskyCertificate:
    FLOOR = 1e-9

    @pytest.mark.parametrize("n", [8, 15])
    def test_verdict_and_eigmin_match_eigenvalue_path(self, n):
        rng = np.random.default_rng(n)
        factors = (-2.0, -1.01, -0.99, -0.6, -0.4, 0.0, 1.0)
        # Positive definite, so the factorization completes: only the
        # rounding bound keeps it from certifying.
        huge = with_eigmin(rng, n, 0.5)
        huge *= 1e8 / np.abs(huge).max()
        stack = np.stack([with_eigmin(rng, n, c * self.FLOOR)
                          for c in factors] + [np.ones((n, n)), huge])
        reference = np.linalg.eigvalsh(stack)[:, 0]
        one_by_one = np.array([_eigmin_uncertified(self.FLOOR, a[None])[0]
                               for a in stack])
        for eigmin in (one_by_one, _eigmin_uncertified(self.FLOOR, stack)):
            assert np.array_equal(eigmin < -self.FLOOR,
                                  reference < -self.FLOOR)
            computed = np.isfinite(eigmin)
            assert np.array_equal(eigmin[computed], reference[computed])
        # c = -0.4, 0, 1 and the singular all-ones matrix are certified;
        # the 1e8 matrix, whose rounding bound exceeds the floor, never is.
        assert np.array_equal(np.isinf(one_by_one),
                              [False] * 4 + [True] * 4 + [False])

    @pytest.mark.parametrize("chi,d", [(erfc_sqrt(), 3),
                                       (powered_erfc(0.4), 1),
                                       (generalized_cauchy(1.0), 2)])
    def test_passing_candidates_compute_no_eigenvalue(self, monkeypatch,
                                                      chi, d):
        calls = counting_eigvalsh(monkeypatch)
        report = classify(chi, d)
        assert report.verdicts["completely_monotone"].passed
        assert report.verdicts["positive_definite"].passed
        assert calls == []

    @pytest.mark.parametrize("d,seed", [(1, 0), (3, 0), (3, 4)])
    def test_gram_stage_diagonalizes_only_the_witness_chunk(
            self, monkeypatch, d, seed):
        # The witnesses equal the reference loop's
        # (test_gram_witness_matches_loop_by_configuration).
        calls = counting_eigvalsh(monkeypatch)
        index = test_positive_definite(cubic_cutoff(), d,
                                       seed=seed).witness[0]
        chunk = next(part for part in _chunks(50) if part.stop > index)
        assert calls == [(chunk.stop - chunk.start, 8, 8)]

    def test_passing_gram_stage_computes_no_eigenvalue(self, monkeypatch):
        # truncated_power(1.5) passes every random configuration in d = 3;
        # the spectral stage refutes it.
        calls = counting_eigvalsh(monkeypatch)
        verdict = test_positive_definite(truncated_power(1.5), 3,
                                         n_configs=50, n_points=8)
        assert calls == []
        assert isinstance(verdict.witness, LatticeProbeWitness)
        monkeypatch.undo()
        assert gram_stage_by_configuration(truncated_power(1.5), 3, 0) is None

    @pytest.mark.parametrize("f,grids", [(powered_erfc(0.52), slice(4, 16)),
                                         (narrow_bump(0.68), slice(64, 169))],
                             ids=["erfc0.52", "bump0.68"])
    def test_moment_stage_diagonalizes_only_the_witness_chunk(
            self, monkeypatch, f, grids):
        # The witnesses equal the reference loop's
        # (test_moment_witness_matches_loop_by_grid).
        calls = counting_eigvalsh(monkeypatch)
        assert _moment_matrix_stage(f, 1e-9).failed
        assert calls == [(grids.stop - grids.start, 15, 15)] * 2


class TestLatticeRayleigh:
    @pytest.mark.parametrize("shape", [(41,), (3,), (21, 11), (11, 7, 7),
                                       (5, 3, 3)])
    @pytest.mark.parametrize("chi", [tent(), truncated_power(1.5)],
                             ids=["tent", "trunc_pow1.5"])
    def test_matches_whole_gram_matrix(self, chi, shape):
        # h = 0.15 puts the support edge at about 6.7 lattice steps: the
        # larger lattices reach past it, the smaller ones stay inside it.
        args = (8.0, 0.15, shape, 0.8, 0.4)
        assert _lattice_rayleigh(chi, *args) == pytest.approx(
            lattice_rayleigh_brute_force(chi, *args), rel=1e-12)

    def test_witness_quotient_matches_whole_gram_matrix(self):
        # The frequency, spacing and windows certified for tent in d = 2,
        # on a 25 x 25 lattice (the certified 247 x 77 one has 19,019
        # sites, too many for a whole Gram matrix).
        witness = test_positive_definite(tent(), 2).witness
        shape = tuple(min(n, 25) for n in witness.shape)
        args = (witness.omega, witness.spacing, shape) + witness.sigma
        assert _lattice_rayleigh(tent(), *args) == pytest.approx(
            lattice_rayleigh_brute_force(tent(), *args), rel=1e-12)


class TestSpectralDensity:
    @pytest.mark.parametrize("omega", [0.5, 2.0, 2.0 * math.pi, 10.0])
    def test_tent_closed_form(self, omega):
        # int_0^1 (1-r) cos(w r) dr = (1 - cos w) / w^2.
        expected = 2.0 * (1.0 - math.cos(omega)) / omega**2
        assert spectral_density(tent(), 1, omega) == pytest.approx(
            expected, abs=1e-10)

    @pytest.mark.parametrize("omega", [5.0, 8.3, 12.0])
    def test_truncated_power_against_quad(self, omega):
        value = spectral_density(truncated_power(1.5), 3, omega)
        oracle, _ = quad(lambda r: r * (1.0 - r)**1.5 * math.sin(omega * r),
                         0.0, 1.0)
        assert value == pytest.approx(4.0 * math.pi / omega * oracle,
                                      rel=1e-8, abs=1e-12)

    def test_negative_dip_location(self):
        assert spectral_density(truncated_power(1.5), 3, 8.3) < -2e-3
        assert spectral_density(truncated_power(1.5), 3, 5.0) > 0.0

    def test_requires_compact_support(self):
        with pytest.raises(DomainError):
            spectral_density(erfc_sqrt(), 3, 1.0)

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            spectral_density(tent(), 4, 1.0)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan])
    def test_omega_guard(self, bad):
        with pytest.raises(DomainError, match=f"omega must be > 0, got {bad}"):
            spectral_density(tent(), 1, bad)
        omegas = np.array([[1.0, 2.0, 3.0], [4.0, bad, -1.0]])
        with pytest.raises(DomainError, match=f"got {bad}$"):
            spectral_density(tent(), 1, omegas)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_array_matches_floats(self, d):
        omegas = np.array([[0.5, 2.0, 5.0], [8.3, 12.0, 30.0]])
        assert_entrywise(
            lambda w: spectral_density(truncated_power(1.5), d, w), omegas)


class TestConvexityConditions:
    def test_chi_3_fails_h3_at_the_kink(self):
        # -chi_3'(sqrt t) drops from slope -3 to -17/4 at t = 1/4: a
        # concave kink the midpoint test must catch right there.
        verdict = test_H3_condition(chi_d_radial(3))
        assert verdict.failed
        assert 0.24 < verdict.witness[1] < 0.26

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_phi_d_fails_h3_at_one(self, d):
        verdict = test_H3_condition(phi_d_radial(d))
        assert verdict.failed
        assert 0.9 < verdict.witness[1] < 1.1

    @pytest.mark.parametrize("phi", [exponential_decay(), erfc_sqrt()])
    def test_smooth_members_pass_h3(self, phi):
        assert test_H3_condition(phi).passed

    def test_phi_2_fails_h2(self):
        verdict = test_H2_condition(phi_d_radial(2))
        assert verdict.failed
        assert 1.0 <= verdict.witness[1] < 1.15

    @pytest.mark.parametrize("phi", [exponential_decay(), erfc_sqrt()])
    def test_smooth_members_pass_h2(self, phi):
        assert test_H2_condition(phi).passed


class TestArrayEvaluation:
    """The batteries hand a candidate whole grids; a kink on the grid is
    stepped off by the -phi'(sqrt t) transform itself."""

    @staticmethod
    def counted(chi):
        """``chi`` with a func that counts its float calls."""
        calls = {"float": 0}

        def func(r):
            if np.ndim(r) == 0:
                calls["float"] += 1
            return chi.func(r)

        return dataclasses.replace(chi, func=func), calls

    @pytest.mark.parametrize("chi", [erfc_sqrt(), powered_erfc(0.8),
                                     exponential_decay()])
    @pytest.mark.parametrize("battery", [
        test_T1_MMMr,
        lambda chi: test_completely_monotone(chi, max_order=0),
        test_triangle,
    ], ids=["T1_MMMr", "completely_monotone", "triangle"])
    def test_no_float_calls(self, chi, battery):
        wrapped, calls = self.counted(chi)
        battery(wrapped)
        assert calls["float"] == 0

    @pytest.mark.parametrize("chi", [
        truncated_power(2.0), powered_erfc(0.8), phi_d_radial(3),
        chi_d_radial(3), erf_square_complement_radial(), "@m3b.yaml"])
    def test_classify_makes_one_float_call(self, chi, tmp_path, monkeypatch):
        # The chi(0) check; derivative stencils and the spectral scan
        # evaluate whole arrays.  An @CONFIG spec is counted at its model
        # TCF, which returns the closed form erfc(sqrt t) of the M3b config
        # here instead of running its quadrature.
        if isinstance(chi, str):
            calls = {"float": 0, "array": 0}

            def counting_tcf(model, t, *, tol):
                assert isinstance(model, M3bModel)
                calls["float" if np.ndim(t) == 0 else "array"] += 1
                return erfc_sqrt()(t)

            monkeypatch.setattr(models, "tcf", counting_tcf)
            path = tmp_path / chi
            path.write_text("class: M3b\ndim: 3\n"
                            "radius:\n  type: erfc_sqrt_radius\n")
            wrapped = cli._resolve(f"@{path}", 1e-9)[0]
        else:
            wrapped, calls = self.counted(chi)
        classify(wrapped, 3)
        assert calls["float"] <= 1
        if isinstance(chi, str):
            assert calls["array"] > 0

    def test_default_grid_witness_holds_python_floats(self):
        assert all(type(x) is float for x in DEFAULT_GRID)
        verdict = test_completely_monotone(powered_erfc(0.8))
        assert verdict.failed
        assert all(type(v) in (float, int) for v in verdict.witness)
        # The order-5 value of the Taylor hook; 40-digit arithmetic reads
        # 0.27982298271998547 (Ridders' ladder read 0.2798212958).
        assert re.fullmatch(
            r"\(0\.870359136148\d*, 5, 0\.27982298271998\d*\)",
            repr(verdict.witness))

    KINK_GRID = np.linspace(0.25, 4.0, 16)  # holds t = 1

    def test_tinfty_on_a_grid_through_the_kink(self):
        assert 1.0 in self.KINK_GRID
        verdict = test_Tinfty_MMMr(phi_d_radial(3), grid=self.KINK_GRID)
        assert verdict.failed
        w = verdict.witness
        assert (w.start, w.size) == (0.01, 15)
        assert w.spacing == pytest.approx(0.03760603093086394, rel=1e-12)
        assert w.eigmin == pytest.approx(-0.054984634972387855, rel=1e-9)

    def test_h3_on_a_grid_through_the_kink(self):
        assert test_H3_condition(phi_d_radial(3), grid=self.KINK_GRID).passed
        verdict = test_H3_condition(phi_d_radial(2), grid=self.KINK_GRID)
        assert verdict.failed
        assert verdict.witness[:3] == (0.75, 0.875, 1.0)
        assert verdict.witness[3] == pytest.approx(1.0065847307449971e-05,
                                                   rel=1e-9)


class TestClassify:
    def test_erfc_sqrt_not_refuted_anywhere(self):
        report = classify(erfc_sqrt(), 3)
        assert set(report.verdicts) == {
            "T1_MMMr", "completely_monotone", "triangle",
            "positive_definite", "Tinfty_MMMr", "H3_condition",
            "br_family_rule", "mps_family_rule", "vbr_support_rule",
        }
        assert all(v.passed for v in report.verdicts.values())

    def test_h3_radial_class_pattern(self):
        report = classify(h3_radial(), 3)
        assert report.verdicts["completely_monotone"].failed
        assert report.verdicts["Tinfty_MMMr"].failed
        assert report.verdicts["vbr_support_rule"].failed
        for name in ("T1_MMMr", "triangle", "positive_definite",
                     "H3_condition"):
            assert report.verdicts[name].passed

    def test_powered_erfc_three_quarters(self):
        report = classify(powered_erfc(0.75), 1)
        assert report.verdicts["br_family_rule"].passed
        assert report.verdicts["mps_family_rule"].failed
        assert report.verdicts["completely_monotone"].failed

    def test_dimension_two_adds_h2(self):
        report = classify(exponential_decay(), 2)
        assert "H2_condition" in report.verdicts
        assert "H3_condition" not in report.verdicts
        assert all(v.passed for v in report.verdicts.values())

    @pytest.mark.parametrize("d,eigmin", [(2, -0.012623131264049575),
                                          (3, -0.007604505181228207)])
    def test_phi_d_refuted_by_a_moment_matrix(self, d, eigmin):
        # phi_d is linear on [0, 1], where every derivative of order 2 and
        # up vanishes; a derivative witness there would be noise.
        verdict = classify(phi_d_radial(d), d).verdicts["completely_monotone"]
        assert verdict.failed
        assert isinstance(verdict.witness, MomentMatrixWitness)
        assert verdict.witness.eigmin == pytest.approx(eigmin, rel=1e-6)

    def test_wrong_normalization_rejected(self):
        half = radial_from_callable("half", lambda r: 0.5 * math.exp(-r))
        with pytest.raises(DomainError):
            classify(half, 1)

    @pytest.mark.parametrize("grid, entry", [
        ([0.01, math.nan, 100.0], "1 is nan"),
        ([0.01, 1.0, math.inf], "2 is inf"),
    ], ids=["nan", "inf"])
    def test_non_finite_grid_entry_named(self, grid, entry):
        # A NaN entry used to pass every battery on the two real points.
        with pytest.raises(DomainError, match=f"^grid entry {entry}, "):
            classify(exponential_decay(), 1, grid=grid)

    @pytest.mark.parametrize("battery, x", [
        (test_T1_MMMr, "2.0729"),
        (test_triangle, "2.8480"),
        (lambda f: test_positive_definite(f, 2), "2.4161"),
    ], ids=["T1_MMMr", "triangle", "positive_definite"])
    def test_non_finite_candidate_named(self, battery, x):
        # exp(-x) up to 2, NaN beyond: T1 and the triangle used to pass,
        # and the Gram eigenvalues ended in a LinAlgError.
        f = radial_from_callable(
            "exp_nan", lambda r: math.exp(-r) if r < 2 else math.nan)
        pattern = f"^candidate 'exp_nan' is not finite at x = {x}"
        with pytest.raises(DomainError, match=pattern.replace(".", r"\.")):
            battery(f)

    def test_summary_lists_witnesses(self):
        report = classify(h3_radial(), 3)
        text = report.summary()
        assert "pass = not refuted" in text
        assert "witness=" in text
        assert "completely_monotone" in text

    def test_report_is_reproducible(self):
        first = classify(powered_erfc(0.3), 1, seed=11)
        second = classify(powered_erfc(0.3), 1, seed=11)
        statuses = lambda rep: {k: v.status for k, v in rep.verdicts.items()}
        assert statuses(first) == statuses(second)
        assert first.grid == DEFAULT_GRID


class TestReportStructure:
    def test_report_carries_tolerances(self):
        report = classify(exponential_decay(), 1)
        assert report.tolerances["triangle"] == 1e-12
        assert report.tolerances["positive_definite"] == 1e-9

    def test_report_type(self):
        report = classify(exponential_decay(), 1)
        assert isinstance(report, MembershipReport)
