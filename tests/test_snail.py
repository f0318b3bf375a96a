import math

import numpy as np
import pytest

from snailtwpa.errors import NoConvergence
from snailtwpa.snail import (
    SnailParams,
    SnailCoefficients,
    coefficients,
    coefficients_vs_flux,
    find_phi_star,
    snail_current,
)

R = 0.07
I_C = 2.19e-6


def bisect_root(params, lo, hi, tol=1e-13):
    # independent brute-force oracle: plain bisection on the sign change
    flo = snail_current(lo, params)
    assert flo * snail_current(hi, params) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = snail_current(mid, params)
        if abs(hi - lo) < tol:
            return mid
        if fmid * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = fmid
    return 0.5 * (lo + hi)


def test_current_zero_at_origin():
    params = SnailParams(r=R, i_c=I_C, phi_ext=0.0)
    assert snail_current(0.0, params) == 0.0


def test_current_direct_evaluation():
    # I(pi/2) = i_c * (r + sin(pi/6)) at zero flux
    params = SnailParams(r=R, i_c=I_C, phi_ext=0.0)
    expected = I_C * (R + math.sin(math.pi / 6.0))
    assert snail_current(math.pi / 2.0, params) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(1.2483e-6, rel=1e-4)


def test_current_odd_symmetry():
    rng = np.random.default_rng(42)
    for _ in range(50):
        phi = rng.uniform(-10, 10)
        flux = rng.uniform(-3, 3)
        plus = SnailParams(r=R, i_c=I_C, phi_ext=flux)
        minus = SnailParams(r=R, i_c=I_C, phi_ext=-flux)
        assert snail_current(-phi, minus) == pytest.approx(
            -snail_current(phi, plus), abs=1e-25
        )


def test_current_periodicity_6pi():
    params = SnailParams(r=R, i_c=I_C, phi_ext=1.3)
    phi = np.linspace(-5, 5, 101)
    np.testing.assert_allclose(
        snail_current(phi + 6 * np.pi, params), snail_current(phi, params), atol=1e-20
    )


def test_phi_star_trivial_at_zero_flux():
    params = SnailParams(r=R, i_c=I_C, phi_ext=0.0)
    assert find_phi_star(params) == 0.0


def test_phi_star_against_bisection_oracle():
    params = SnailParams(r=R, i_c=I_C, phi_ext=math.pi)
    newton = find_phi_star(params)
    oracle = bisect_root(params, 0.0, 2.0 * math.pi)
    assert newton == pytest.approx(oracle, abs=1e-10)
    assert abs(snail_current(newton, params)) < 1e-12 * I_C


def test_phi_star_odd_in_flux():
    for flux in np.linspace(0.05, 3.0, 25):
        plus = find_phi_star(SnailParams(r=R, i_c=I_C, phi_ext=flux))
        minus = find_phi_star(SnailParams(r=R, i_c=I_C, phi_ext=-flux))
        assert minus == pytest.approx(-plus, abs=1e-10)


def test_phi_star_residual_over_sweep():
    # 1001 flux points over phi_ext in [-2*pi, 2*pi]
    for phi_ext in np.linspace(-2 * math.pi, 2 * math.pi, 1001):
        params = SnailParams(r=R, i_c=I_C, phi_ext=phi_ext)
        root = find_phi_star(params)
        assert abs(snail_current(root, params)) < 1e-12 * I_C


def test_phi_star_warm_start_matches_cold_start():
    params = SnailParams(r=R, i_c=I_C, phi_ext=2.0)
    cold = find_phi_star(params)
    warm = find_phi_star(params, guess=cold + 0.3)
    assert warm == pytest.approx(cold, abs=1e-10)


def test_phi_star_rejects_large_r():
    with pytest.raises(ValueError):
        find_phi_star(SnailParams(r=0.4, i_c=I_C, phi_ext=1.0))


def test_coefficients_at_zero_flux():
    params = SnailParams(r=R, i_c=I_C, phi_ext=0.0)
    c = coefficients(params)
    assert c.beta == 0.0  # sin(0) terms vanish exactly
    assert c.alpha_tilde == pytest.approx(R + 1.0 / 3.0, rel=1e-14)
    gamma_oracle = (1.0 / 6.0) * (R + 1.0 / 27.0) / (R + 1.0 / 3.0)
    assert c.gamma == pytest.approx(gamma_oracle, abs=1e-12)
    assert gamma_oracle == pytest.approx(0.044230, abs=1e-6)


def test_inductance_from_alpha():
    from snailtwpa.constants import PHI0

    c = coefficients(SnailParams(r=R, i_c=I_C, phi_ext=0.0))
    assert c.inductance == pytest.approx(
        PHI0 / (2 * math.pi * c.alpha_tilde * I_C), rel=1e-14
    )
    assert 2e-10 < c.inductance < 6e-10  # a few hundred pH


def test_beta_odd_gamma_even_over_sweep():
    flux = np.linspace(-1.0, 1.0, 1001)  # phi_ext in [-2pi, 2pi]
    sweep = coefficients_vs_flux(R, flux)
    beta, gamma = sweep["beta"], sweep["gamma"]
    np.testing.assert_allclose(beta, -beta[::-1], atol=1e-10)
    np.testing.assert_allclose(gamma, gamma[::-1], atol=1e-10)
    assert sweep["alpha_tilde"].min() > 0.0


def test_gamma_changes_sign_within_sweep():
    flux = np.linspace(-1.0, 1.0, 1001)
    gamma = coefficients_vs_flux(R, flux)["gamma"]
    n_crossings = int(np.sum(np.diff(np.sign(gamma)) != 0))
    assert n_crossings >= 2
    assert n_crossings % 2 == 0  # even count, gamma is even in flux


def test_taylor_consistency_richardson():
    # |I(phi*+phi)/(alpha*i_c) - (phi - beta*phi^2 - gamma*phi^3)| <= C*phi^4
    # with a bounded fitted C as phi shrinks
    params = SnailParams(r=R, i_c=I_C, phi_ext=0.59 * 2 * math.pi)
    c = coefficients(params)
    ratios = []
    for phi in 0.1 * 2.0 ** -np.arange(0, 5):
        lhs = snail_current(c.phi_star + phi, params) / (c.alpha_tilde * I_C)
        cubic = phi - c.beta * phi**2 - c.gamma * phi**3
        ratios.append(abs(lhs - cubic) / phi**4)
    ratios = np.array(ratios)
    # quartic scaling: the fitted constant stays within a factor ~2
    assert ratios.max() < 2.0 * ratios.min() + 1e-9
    assert ratios.max() < 1.0  # fourth-order coefficient of this CPR is < 1


def test_coefficients_periodic_in_6pi():
    # same branch convention at phi_ext and phi_ext + 6*pi
    for flux in (0.13, 0.45, 0.59):
        a = coefficients(SnailParams.from_flux(R, I_C, flux))
        b = coefficients(SnailParams.from_flux(R, I_C, flux + 3.0))
        assert b.beta == pytest.approx(a.beta, abs=1e-10)
        assert b.gamma == pytest.approx(a.gamma, abs=1e-10)
        assert b.alpha_tilde == pytest.approx(a.alpha_tilde, abs=1e-10)
        assert b.phi_star == pytest.approx(a.phi_star + 6.0 * math.pi, abs=1e-9)


def test_sweep_matches_pointwise():
    flux = np.linspace(-0.8, 0.8, 33)
    sweep = coefficients_vs_flux(R, flux)
    for i in (0, 7, 16, 25, 32):
        c = coefficients(SnailParams.from_flux(R, I_C, float(flux[i])))
        assert sweep["beta"][i] == pytest.approx(c.beta, abs=1e-12)
        assert sweep["gamma"][i] == pytest.approx(c.gamma, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        SnailParams(r=0.0, i_c=I_C, phi_ext=0.0)
    with pytest.raises(ValueError):
        SnailParams(r=1.2, i_c=I_C, phi_ext=0.0)
    with pytest.raises(ValueError):
        SnailParams(r=R, i_c=-1e-6, phi_ext=0.0)
    with pytest.raises(ValueError):
        SnailParams(r=R, i_c=I_C, phi_ext=math.inf)
