"""The analytic acceptance computations (criteria 1-7, 9, 11 and 12 of the
package's acceptance gate; criterion 8 is the erfc_mixture part of the
``analytic`` sweep), called directly at the gate's tolerances.

Each criterion returns ``(passed, detail)``.  Every call into ``tailcorr``
goes through the tracer so it is counted and, when tracing, timed under the
module it enters.  The gate's wall-clock limits are left out: the benchmark
measures time, it does not assert on it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf as sp_erf
from scipy.special import erfc as sp_erfc


def _worst(pairs) -> float:
    return max((abs(a - b) for a, b in pairs), default=0.0)


def criterion_01(tc, tr):
    """d = 3 inversion of erfc(sqrt t) against the closed-form shape and
    diameter densities, relative 1e-6 on 100 log-spaced points."""
    from tailcorr.recovery import (RecoveryInput, recover_radius_density,
                                   recover_shape)
    inp = RecoveryInput(chi=tc.erfc_sqrt(), dim=3)
    worst = 0.0
    for u in (float(p) for p in np.geomspace(1e-2, 1e1, 100)):
        f = tr.call("recovery", recover_shape, inp, u,
                    metric="recovery.recover_shape_us")
        f_closed = ((1.0 + 4.0 * u) * math.exp(-2.0 * u)
                    / (math.pi ** 1.5 * (2.0 * u) ** 2.5))
        k = tr.call("recovery", recover_radius_density, inp, u,
                    metric="recovery.recover_radius_density_us")
        k_closed = ((4.0 * u * u + 8.0 * u + 5.0) * math.exp(-u)
                    / (12.0 * math.sqrt(math.pi * u)))
        worst = max(worst, abs(f - f_closed) / f_closed,
                    abs(k - k_closed) / k_closed)
    return worst <= 1e-6, f"worst relative deviation {worst:.3g}"


def criterion_02(tc, tr):
    """The d = 2 storm model with the arctan mixing law has TCF
    erfc(sqrt t) to 1e-6 on [0.05, 5]."""
    from tailcorr import presets
    mixing = presets.erfc_sqrt_mps_mixing()
    cdf_gap = _worst(
        (mixing.cdf(s),
         (2.0 / math.pi) * math.atan(math.sqrt(2.0 * s / math.pi - 1.0)))
        for s in (1.8, 2.5, 4.0, 9.0))
    model = tc.MPSModel(dim=2, mixing=mixing)
    ts = np.linspace(0.05, 5.0, 50)
    values = tr.call("models", tc.tcf, model, ts, units=len(ts))
    gap = float(np.max(np.abs(values - sp_erfc(np.sqrt(ts)))))
    return cdf_gap <= 1e-13 and gap <= 1e-6, \
        f"cdf gap {cdf_gap:.3g}, tcf gap {gap:.3g}"


def criterion_03(tc, tr):
    """S_1.62 / T_1.62 of e^{-t} equal the EG / EBG correlations, and the
    BR / EG / EBG TCFs equal erfc(0.45 sqrt(1 - e^{-t})), to 1e-12."""
    from tailcorr import presets
    rho_eg, rho_ebg = presets.bounded_gauss_correlations()
    ts = np.geomspace(1e-3, 1e2, 200)
    worst_rho = worst_map = 0.0
    for t in (float(v) for v in ts):
        u = math.sqrt(1.0 - math.exp(-t))
        eg_closed = 1.0 - 2.0 * float(sp_erf(0.45 * u)) ** 2
        ebg_closed = -math.cos(math.pi * float(sp_erfc(0.45 * u)))
        worst_rho = max(worst_rho, abs(rho_eg(t) - eg_closed),
                        abs(rho_ebg(t) - ebg_closed))
        x = math.exp(-t)
        s_val = tr.call("operators", tc.transform_S, 1.62, x,
                        metric="operators.transform_us")
        t_val = tr.call("operators", tc.transform_T, 1.62, x,
                        metric="operators.transform_us")
        worst_map = max(worst_map, abs(s_val - eg_closed),
                        abs(t_val - ebg_closed))
    target = sp_erfc(0.45 * np.sqrt(1.0 - np.exp(-ts)))
    models = presets.bounded_gauss_models(dim=1)
    worst_tcf = max(
        float(np.max(np.abs(tr.call("models", tc.tcf, models[name], ts,
                                    units=len(ts)) - target)))
        for name in ("BR", "EG", "EBG"))
    ok = worst_rho <= 1e-12 and worst_map <= 1e-12 and worst_tcf <= 1e-12
    return ok, (f"rho {worst_rho:.3g}, maps {worst_map:.3g}, "
                f"tcf {worst_tcf:.3g}")


def criterion_04(tc, tr):
    """Sharp admissibility constants of the S and T maps."""
    s_gap = abs(tc.S_ADMISSIBLE_LIMIT - 4.425098)
    t_gap = abs(tc.T_ADMISSIBLE_LIMIT - 1.8197)
    return s_gap <= 1e-5 and t_gap <= 1e-4, f"gaps {s_gap:.3g}, {t_gap:.3g}"


def criterion_05(tc, tr):
    """tb_1^3 maps (1-t)e^{-t} to e^{-r} and the tent to phi_3, to 1e-8."""
    spec = tc.TurningBandsSpec(k=1, d=3)
    profile = tc.radial_from_callable("decaying_profile",
                                      lambda t: (1.0 - t) * math.exp(-t))
    tent = tc.tent()
    worst = 0.0
    for r in (float(v) for v in np.linspace(0.0, 10.0, 41)):
        a = tr.call("operators", tc.turning_bands, profile, spec, r,
                    metric="operators.turning_bands_us")
        b = tr.call("operators", tc.turning_bands, tent, spec, r,
                    metric="operators.turning_bands_us")
        phi3 = 1.0 - r / 2.0 if r <= 1.0 else 1.0 / (2.0 * r)
        worst = max(worst, abs(a - math.exp(-r)), abs(b - phi3))
    return worst <= 1e-8, f"worst deviation {worst:.3g}"


def criterion_06(tc, tr):
    """One-sided slopes of -chi_3'(sqrt t) at t = 1/4 are -3 and -17/4."""
    from tailcorr.operators import chi_d_neg_deriv_sqrt

    def g(t):
        return tr.call("operators", chi_d_neg_deriv_sqrt, t, 3)

    def one_sided(sign, h=1e-4):
        t0 = 0.25 + sign * 1e-9
        return sign * (-3.0 * g(t0) + 4.0 * g(t0 + sign * h)
                       - g(t0 + sign * 2.0 * h)) / (2.0 * h)

    left, right = one_sided(-1.0), one_sided(1.0)
    ok = abs(left + 3.0) <= 1e-4 and abs(right + 17.0 / 4.0) <= 1e-4
    return ok, f"slopes {left:.6f}, {right:.6f}"


def criterion_07(tc, tr):
    """Closed-form c''(1) is negative and matches numerics for d = 6, 7, 8;
    midpoint convexity of c / beta_d fails for d = 2, 3, 4."""
    from tailcorr.numerics import beta_d
    from tailcorr.operators import (c_second_deriv_at_1,
                                    midpoint_convexity_violation)

    def c(t, d):
        return tr.call("operators", tc.gneiting_c, t, d,
                       metric="operators.gneiting_c_us")

    worst = 0.0
    ok = True
    for d in (6, 7, 8):
        closed = tr.call("operators", c_second_deriv_at_1, d)
        numeric = tr.call("numerics", tc.num_derivative,
                          lambda t, d=d: c(t, d), 1.0, 2).value
        ok &= closed < 0.0
        worst = max(worst, abs(numeric - closed) / abs(closed))
    violations = []
    for d in (2, 3, 4):
        violation, _ = tr.call(
            "operators", midpoint_convexity_violation,
            lambda t, d=d: c(t, d) / beta_d(d), np.linspace(0.2, 3.0, 57))
        violations.append(violation)
    ok &= worst <= 1e-4 and all(v > 0.0 for v in violations)
    return ok, (f"c'' relative gap {worst:.3g}, violations "
                f"{', '.join(f'{v:.3g}' for v in violations)}")


def criterion_09(tc, tr):
    """erfc(t^a) is completely monotone exactly for a <= 1/2; the d = 3
    truncated power passes positive definiteness at nu = 2 and is refuted
    with a witness at nu = 1.5."""
    wrong = []
    for k in range(1, 11):
        alpha = k / 10.0
        verdict = tr.call("membership", tc.test_completely_monotone,
                          tc.powered_erfc(alpha),
                          metric="membership.completely_monotone_ms")
        if verdict.status != ("pass" if alpha <= 0.5 else "fail"):
            wrong.append(f"alpha {alpha}: {verdict.status}")
    ok_pd = tr.call("membership", tc.test_positive_definite,
                    tc.truncated_power(2.0), 3, n_configs=50, n_points=8,
                    metric="membership.positive_definite_ms")
    refuted = tr.call("membership", tc.test_positive_definite,
                      tc.truncated_power(1.5), 3, n_configs=50, n_points=8,
                      metric="membership.positive_definite_ms")
    if ok_pd.status != "pass":
        wrong.append(f"nu 2: {ok_pd.status}")
    if refuted.status != "fail" or refuted.witness is None:
        wrong.append(f"nu 1.5: {refuted.status}")
    return not wrong, "; ".join(wrong) or "all verdicts as expected"


def criterion_11(tc, tr):
    """The implied-variogram curvature scan finds an interior local
    minimum on [1e-4, 10]."""
    from tailcorr.operators import implied_br_curvature_min
    location, value = tr.call("operators", implied_br_curvature_min,
                              1e-4, 10.0,
                              metric="operators.curvature_scan_ms")
    ok = 1e-4 < location < 10.0
    for neighbor in (0.8 * location, 1.25 * location):
        second = tr.call("numerics", tc.num_derivative,
                         tc.implied_br_variogram, neighbor, 2).value
        ok &= second > value
    return ok, f"minimum {value:.6g} at {location:.6g}"


def criterion_12(tc, tr):
    """Numeric derivatives of 1 - erf(sqrt x)^2 alternate in sign through
    order 6 on a 50-point grid; estimates within their error bar are
    inconclusive, and at least half must resolve."""
    from tailcorr.operators import erf_square_complement
    points = np.geomspace(0.05, 10.0, 50)
    wrong = []
    for order in range(1, 7):
        resolved = 0
        for x in (float(v) for v in points):
            res = tr.call("numerics", tc.num_derivative,
                          erf_square_complement, x, order, x / 32.0,
                          kinks=(0.0,), metric="numerics.num_derivative_us")
            if abs(res.value) <= res.abs_error_estimate:
                continue
            if math.copysign(1.0, res.value) != (-1.0) ** order:
                wrong.append(f"order {order} at {x:.4g}")
            resolved += 1
        if resolved < len(points) // 2:
            wrong.append(f"order {order}: only {resolved} resolved")
    return not wrong, "; ".join(wrong) or "signs alternate"


def phi_d_sweep(tc, tr):
    """phi_3 over 200 lags against its closed form 1 - t/2, 1/(2t)."""
    worst = 0.0
    for t in (float(v) for v in np.geomspace(1e-3, 10.0, 200)):
        value = tr.call("operators", tc.phi_d, t, 3,
                        metric="operators.phi_d_us")
        closed = 1.0 - t / 2.0 if t <= 1.0 else 1.0 / (2.0 * t)
        worst = max(worst, abs(value - closed))
    return worst <= 1e-10, f"worst deviation {worst:.3g}"


def radius_law(tc, tr):
    """The recovered d = 3 diameter law of erfc(sqrt t): its cdf against
    SciPy quadrature of the closed-form diameter density."""
    from scipy import integrate

    from tailcorr.recovery import RecoveryInput, recover_radius_law
    points = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    with tr.span("recovery", "recover_radius_law",
                 metric="recovery.recover_radius_law_ms"):
        law = recover_radius_law(RecoveryInput(chi=tc.erfc_sqrt(), dim=3))
        got = [law.cdf(s) for s in points]

    def density(s):
        return ((4.0 * s * s + 8.0 * s + 5.0) * math.exp(-s)
                / (12.0 * math.sqrt(math.pi * s)))

    want = [integrate.quad(density, 0.0, s, epsabs=1e-13, epsrel=1e-12,
                           limit=200)[0] for s in points]
    worst = _worst(zip(got, want))
    return worst <= 1e-8, f"worst cdf deviation {worst:.3g}"


def triangle(tc, tr):
    """erfc(sqrt t) and the tent satisfy the triangle inequality."""
    statuses = [tr.call("membership", tc.test_triangle, chi,
                        metric="membership.triangle_ms").status
                for chi in (tc.erfc_sqrt(), tc.tent())]
    return statuses == ["pass", "pass"], f"verdicts {statuses}"


CRITERIA = {
    "criterion_01": criterion_01, "criterion_02": criterion_02,
    "criterion_03": criterion_03, "criterion_04": criterion_04,
    "criterion_05": criterion_05, "criterion_06": criterion_06,
    "criterion_07": criterion_07, "criterion_09": criterion_09,
    "criterion_11": criterion_11, "criterion_12": criterion_12,
    "phi_d_sweep": phi_d_sweep, "radius_law": radius_law,
    "triangle": triangle,
}
