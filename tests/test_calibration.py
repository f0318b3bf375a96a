import math
import warnings

import numpy as np
import pytest

from snailtwpa.constants import BOLTZMANN, E_CHARGE, PLANCK
from snailtwpa.errors import FitDivergence, IllConditioned
from snailtwpa.calibration import (
    NormalizationParams,
    SntjModel,
    fit_sntj,
    input_attenuation,
    insertion_loss_from_tan_delta,
    normalization_factor,
    sntj_noise_power,
)

F_PUMP = 7.705e9
F_HALF = F_PUMP / 2.0
BW = 3e3
HF_E = PLANCK * F_HALF / E_CHARGE  # coth knee voltage, ~16 uV

# Calibrated system gains from the reference device, dB vs acquisition frequency
TABLE_GAINS = [
    (F_HALF, 61.7),
    (F_HALF + 31e6, 62.0),
    (F_HALF - 31e6, 61.1),
    (F_HALF + 61e6, 61.5),
    (F_HALF - 61e6, 62.0),
    (F_PUMP + 31e6, 46.5),
]


def make_model(g_db=61.7, t_sys=4.0, tel=0.05, f=F_HALF):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SntjModel(
            frequency=f, bandwidth=BW, t_electron=tel, t_sys=t_sys, g_sys=10 ** (g_db / 10)
        )


def test_evenness_machine_precision():
    model = make_model()
    v = np.linspace(1e-7, 8 * HF_E, 1001)
    np.testing.assert_array_equal(sntj_noise_power(model, v), sntj_noise_power(model, -v))


def test_high_bias_asymptote():
    # N -> [e|V|/(2 k_B) + T_sys] * BW * G * k_B, slope e*BW*G/2
    model = make_model()
    v = np.array([400 * HF_E, 401 * HF_E])
    n = sntj_noise_power(model, v)
    slope = (n[1] - n[0]) / (v[1] - v[0])
    assert slope == pytest.approx(E_CHARGE * BW * model.g_sys / 2.0, rel=1e-9)
    intercept = n[0] - slope * v[0]
    assert intercept == pytest.approx(
        model.t_sys * BW * model.g_sys * BOLTZMANN, rel=1e-9
    )


def test_quantum_floor_at_zero_bias():
    # V=0, T->0: [hf/(2 k_B) + T_sys] * BW * G * k_B; cross-check at T = 1 mK
    model = make_model(tel=1e-3)
    floor = float(sntj_noise_power(model, 0.0))
    expected = (
        PLANCK * F_HALF / (2.0 * BOLTZMANN) + model.t_sys
    ) * BW * model.g_sys * BOLTZMANN
    assert floor == pytest.approx(expected, rel=1e-12)


def test_removable_singularity_at_ev_hf():
    model = make_model()
    exact_point = sntj_noise_power(model, np.array([HF_E]))
    assert np.isfinite(exact_point).all()
    # continuity across the series/direct switchover
    eps = 1e-6 * 2 * BOLTZMANN * model.t_electron / E_CHARGE
    near = sntj_noise_power(model, np.array([HF_E - 0.5 * eps, HF_E + 0.5 * eps]))
    assert near[0] == pytest.approx(near[1], rel=1e-10)


def test_quantum_regime_warning():
    with pytest.warns(UserWarning):
        SntjModel(frequency=1e9, bandwidth=BW, t_electron=0.3, t_sys=4.0, g_sys=1e6)


def bias_grid(n=2001, span=8.0):
    return np.linspace(-span * HF_E, span * HF_E, n)


def test_fit_noiseless_exact_recovery():
    model = make_model()
    v = bias_grid()
    res = fit_sntj(v, sntj_noise_power(model, v), F_HALF, BW, initial_guess=(1e6, 3.0, 0.04))
    assert res.g_sys == pytest.approx(model.g_sys, rel=1e-8)
    assert res.t_sys == pytest.approx(4.0, rel=1e-8)
    assert res.t_electron == pytest.approx(0.05, rel=1e-7)


def test_fit_recovers_gain_with_one_percent_noise():
    # T is weakly identified when T_sys >> hf/k_B, so the 10 % recovery
    # needs a dense bias grid
    model = make_model()
    v = bias_grid(n=50_001)
    rng = np.random.default_rng(1234)
    y = sntj_noise_power(model, v) * (1.0 + 0.01 * rng.standard_normal(v.size))
    res = fit_sntj(v, y, F_HALF, BW, initial_guess=(1e6, 3.0, 0.04))
    assert abs(res.g_sys_db - 61.7) < 0.1
    assert abs(res.t_sys - 4.0) / 4.0 < 0.10
    assert abs(res.t_electron - 0.05) / 0.05 < 0.10


@pytest.mark.parametrize("frequency,gain_db", TABLE_GAINS)
def test_fit_reproduces_reference_gains(frequency, gain_db):
    model = make_model(g_db=gain_db, f=frequency)
    v = np.linspace(-8, 8, 4001) * PLANCK * frequency / E_CHARGE
    rng = np.random.default_rng(int(frequency) % 2**31)
    y = sntj_noise_power(model, v) * (1.0 + 0.001 * rng.standard_normal(v.size))
    res = fit_sntj(v, y, frequency, BW, initial_guess=(10 ** (gain_db / 10) * 0.7, 3.0, 0.04))
    assert abs(res.g_sys_db - gain_db) < 0.05


def test_fit_unbiased_over_ensemble():
    model = make_model()
    v = bias_grid(n=501)
    clean = sntj_noise_power(model, v)
    rng = np.random.default_rng(99)
    recovered = []
    for _ in range(100):
        y = clean * (1.0 + 0.01 * rng.standard_normal(v.size))
        res = fit_sntj(v, y, F_HALF, BW, initial_guess=(1.2e6, 3.5, 0.06))
        recovered.append(res.g_sys_db)
    assert abs(np.mean(recovered) - 61.7) < 0.02


def test_fit_identifiability_guard():
    model = make_model()
    v = np.linspace(-1.5 * HF_E, 1.5 * HF_E, 101)  # range < 2hf/e
    with pytest.raises(IllConditioned):
        fit_sntj(v, sntj_noise_power(model, v), F_HALF, BW, initial_guess=(1e6, 3.0, 0.04))


@pytest.mark.parametrize("guess", [(1e6, 1e300, 0.04), (1e6, 3.0, 1e300)], ids=["t_sys", "t_electron"])
def test_fit_guess_out_of_scale_is_ill_conditioned(guess):
    # the model overflows at the guess: no finite Jacobian to step on
    v = bias_grid(n=201)
    with warnings.catch_warnings(), pytest.raises(IllConditioned, match="not finite"):
        warnings.simplefilter("ignore")
        fit_sntj(v, sntj_noise_power(make_model(), v), F_HALF, BW, initial_guess=guess)


def test_fit_divergence_reports_last_iterate():
    model = make_model()
    v = bias_grid(n=201)
    y = sntj_noise_power(model, v)
    with pytest.raises(FitDivergence) as err:
        fit_sntj(v, y, F_HALF, BW, initial_guess=(1e2, 400.0, 3.0), max_iter=2)
    assert err.value.last_params is not None


def test_fit_requires_enough_points():
    model = make_model()
    v = bias_grid(n=5)
    with pytest.raises(ValueError):
        fit_sntj(v, sntj_noise_power(model, v), F_HALF, BW)


@pytest.mark.parametrize(
    "bad", [{"max_iter": 0}, {"frequency": -F_HALF}, {"frequency": 0.0}, {"bandwidth": -BW}, {"bandwidth": math.nan}]
)
def test_fit_rejects_the_inputs_the_model_rejects(bad):
    # unchecked, max_iter 0 ends in UnboundLocalError, a negative frequency
    # "fits" without a word and a negative bandwidth reads as ill-conditioned
    v = bias_grid(n=201)
    args = {"frequency": F_HALF, "bandwidth": BW, "max_iter": 500} | bad
    with pytest.raises(ValueError, match=next(iter(bad))):
        fit_sntj(v, sntj_noise_power(make_model(), v), initial_guess=(1e6, 3.0, 0.04), **args)


# --- normalization factor -------------------------------------------------


def default_norm(**kw):
    args = dict(eta=0.7, g_sys=10**6.17, f_acq=F_HALF)
    args.update(kw)
    return NormalizationParams(**args)


def test_upsilon_golden_value():
    # independent arithmetic: eta from tan_delta at the reference chain,
    # G = 61.7 dB raised by the 1 dB loss allowance
    eta = insertion_loss_from_tan_delta(
        2.1e-3, 700, F_HALF, 3.725868657029925e-10, 250e-15, 50e-15
    )
    ups = normalization_factor(default_norm(eta=eta))
    g_up = 10 ** (62.7 / 10.0)
    by_hand = 0.98 * math.sqrt(
        eta * 10e-6 / (g_up * 50.0 * 6.62607015e-34 * 3.8525e9)
    )
    assert ups == pytest.approx(by_hand, rel=1e-12)
    assert ups == pytest.approx(168941.6041084582, rel=1e-9)  # frozen golden


def test_upsilon_sqrt_scaling_in_t_int():
    a = normalization_factor(default_norm(t_int=10e-6))
    b = normalization_factor(default_norm(t_int=20e-6))
    assert b / a == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_upsilon_gain_scaling():
    a = normalization_factor(default_norm())
    b = normalization_factor(default_norm(g_sys=10**7.17))  # +10 dB
    assert b / a == pytest.approx(10 ** -0.5, rel=1e-12)


def test_upsilon_conservatism_monotonicity():
    # raising the assumed gain shrinks upsilon, which pulls the inferred
    # covariance difference toward vacuum: reported squeezing magnitude
    # can only decrease
    diff_fs = -0.04  # measured (ON - OFF) variance in FS^2 units
    previous_mag = None
    for extra_db in (0.0, 0.5, 1.0, 2.0):
        ups = normalization_factor(default_norm(loss_correction_db=1.0 + extra_db))
        sigma11 = 1.0 + 4.0 * ups**2 * diff_fs * 1e-10
        mag = abs(10.0 * math.log10(sigma11))
        if previous_mag is not None:
            assert mag <= previous_mag
        previous_mag = mag


# --- input attenuation -----------------------------------------------------


def test_attenuation_zero_case():
    assert input_attenuation(0.0, 0.0, 0.0) == 0.0


def test_attenuation_arithmetic():
    assert input_attenuation(-10.0, -1.0, 61.0) == pytest.approx(-70.0)


def test_attenuation_round_trip_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s21, eta, g = rng.uniform(-80, 80, size=3)
        assert input_attenuation(s21, eta, g) + eta + g == pytest.approx(s21, abs=1e-9)


# --- insertion loss ---------------------------------------------------------


L_CELL = 3.725868657029925e-10  # zero-flux SNAIL inductance of the reference device


def test_insertion_loss_lossless():
    assert insertion_loss_from_tan_delta(0.0, 700, F_HALF, L_CELL, 250e-15, 50e-15) == 1.0


def test_insertion_loss_monotonicity():
    etas_tan = [
        insertion_loss_from_tan_delta(t, 700, F_HALF, L_CELL, 250e-15, 50e-15)
        for t in (0.0, 1e-3, 2e-3, 4e-3)
    ]
    assert all(b < a for a, b in zip(etas_tan, etas_tan[1:]))
    etas_n = [
        insertion_loss_from_tan_delta(2.1e-3, n, F_HALF, L_CELL, 250e-15, 50e-15)
        for n in (100, 400, 700)
    ]
    assert all(b < a for a, b in zip(etas_n, etas_n[1:]))


def test_insertion_loss_against_transient():
    # two independent internal methods: Bloch propagation constant vs the
    # pump-off transmission deficit of the transient simulator, at the
    # default chain parameters
    from snailtwpa.circuit import (
        ChainConfig,
        Tone,
        build_chain,
        extract_spectrum,
        simulate_transient,
        snap_drive,
    )

    probe = F_HALF
    drive = snap_drive(tones=(Tone(probe, 0.0011e-6, 0.0),), window=15e-9, settle_time=12e-9)
    f_snap = drive.tones[0].frequency

    powers = {}
    for tan_delta in (2.1e-3, 0.0):
        cfg = ChainConfig(n_cells=700, tan_delta=tan_delta, disorder_amplitude=0.0)
        chain = build_chain(cfg, 0.0, f_ref=f_snap)
        spec = extract_spectrum(simulate_transient(chain, drive), drive)
        powers[tan_delta] = spec.power_dbm_at(f_snap)
    deficit_db = powers[0.0] - powers[2.1e-3]

    chain = build_chain(ChainConfig(n_cells=700, disorder_amplitude=0.0), 0.0)
    eta = insertion_loss_from_tan_delta(
        2.1e-3, 700, f_snap, float(chain.inductance[0]), 250e-15, 50e-15
    )
    assert deficit_db == pytest.approx(-10.0 * math.log10(eta), abs=0.2)
