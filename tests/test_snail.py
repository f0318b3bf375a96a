import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snailtwpa import snail
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


def test_phi_star_falls_back_to_bisection():
    # near r = 1/3 the first Newton step from phi_ext overshoots the bracket
    # (phi_ext - pi/2, phi_ext), so the search bisects; it still finds the
    # tracked root
    r = 0.283
    params = SnailParams.from_flux(r, I_C, -0.605)
    x = params.phi_ext
    newton = x - snail_current(x, params) / (I_C * (r * math.cos(x) + 1.0 / 3.0))
    assert snail_current(x, params) > 0.0 and newton < x - 0.5 * math.pi
    root = find_phi_star(params)
    assert abs(snail_current(root, params)) < 1e-12 * I_C
    assert abs(root - params.phi_ext) <= 3.0 * math.asin(r)


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


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    r=st.floats(0.01, 0.32),
    flux=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40, unique=True).map(sorted),
    data=st.data(),
)
def test_sweep_point_is_its_own_solve(r, flux, data):
    # a point's bits depend on its flux alone, not on the grid around it,
    # and the sweep keeps the symmetry beta odd, alpha_tilde and gamma even
    flux = np.array(flux)
    sweep = coefficients_vs_flux(r, flux)
    k = data.draw(st.integers(0, flux.size - 1))
    alone = coefficients_vs_flux(r, flux[k : k + 1])
    for key in ("phi_star", "alpha_tilde", "beta", "gamma"):
        assert alone[key][0] == sweep[key][k]
    mirrored = coefficients_vs_flux(r, -flux[::-1])
    np.testing.assert_array_equal(mirrored["beta"][::-1], -sweep["beta"])
    np.testing.assert_array_equal(mirrored["alpha_tilde"][::-1], sweep["alpha_tilde"])
    np.testing.assert_array_equal(mirrored["gamma"][::-1], sweep["gamma"])


def test_array_params_give_each_element_its_scalar_solve():
    # every element stops at its own first iterate inside the tolerance, so
    # its bits are those of its scalar solve; scalar params give floats
    rng = np.random.default_rng(7)
    r = rng.uniform(0.001, 0.333, 2000)
    flux = np.concatenate([rng.uniform(-3.0, 3.0, 1000), rng.uniform(-1000.0, 1000.0, 1000)])
    i_c = rng.uniform(0.5e-6, 5e-6, 2000)
    sweep = coefficients(SnailParams.from_flux(r, i_c, flux))
    assert np.array_equal(find_phi_star(SnailParams.from_flux(r, i_c, flux)), sweep.phi_star)
    for k in range(0, 2000, 7):
        c = coefficients(SnailParams.from_flux(float(r[k]), float(i_c[k]), float(flux[k])))
        assert all(type(v) is float for v in (c.phi_star, c.alpha_tilde, c.beta, c.gamma))
        for key in ("phi_star", "alpha_tilde", "beta", "gamma", "inductance"):
            assert np.float64(getattr(c, key)).view(np.int64) == getattr(sweep, key)[k].view(np.int64)


def test_no_convergence_names_the_element_that_did_not_converge(monkeypatch):
    # a current offset of 2 i_c has no zero, so the middle element never
    # reaches the tolerance while the others converge
    params = SnailParams(r=np.array([0.05, 0.07, 0.09]), i_c=I_C, phi_ext=np.array([0.3, -1.1, 2.0]))
    current = snail.snail_current
    monkeypatch.setattr(snail, "snail_current", lambda phi, p: current(phi, p) + np.array([0.0, 2.0 * I_C, 0.0]))
    with pytest.raises(NoConvergence, match=r"within 100 iterations \(r=0\.07, phi_ext=-1\.1\)$"):
        find_phi_star(params)


def test_array_params_name_the_first_value_out_of_bound():
    with pytest.raises(ValueError, match=r"r must be in \(0, 1/3\).*got 0\.4$"):
        SnailParams(r=np.array([0.07, 0.4, 0.5]), i_c=I_C, phi_ext=0.0)
    with pytest.raises(ValueError, match="critical current must be positive, got -1e-06$"):
        SnailParams(r=R, i_c=np.array([I_C, -1e-6]), phi_ext=np.zeros(2))
    with pytest.raises(ValueError, match="phi_ext must be finite.*got nan$"):
        SnailParams.from_flux(R, I_C, np.array([0.1, math.nan, 2000.0]))
    with pytest.raises(ValueError, match="shape mismatch"):
        SnailParams(r=np.full(3, R), i_c=I_C, phi_ext=np.zeros(2))


def test_params_validation():
    with pytest.raises(ValueError):
        SnailParams(r=0.0, i_c=I_C, phi_ext=0.0)
    with pytest.raises(ValueError):
        SnailParams(r=1.2, i_c=I_C, phi_ext=0.0)
    with pytest.raises(ValueError):
        SnailParams(r=R, i_c=-1e-6, phi_ext=0.0)
    with pytest.raises(ValueError):
        SnailParams(r=R, i_c=I_C, phi_ext=math.inf)
    # beyond 1000 flux quanta float64 cannot always place the working point
    SnailParams.from_flux(R, I_C, -1000.0)
    for flux in (1000.001, -1e12):
        with pytest.raises(ValueError, match="phi_ext"):
            SnailParams.from_flux(R, I_C, flux)
