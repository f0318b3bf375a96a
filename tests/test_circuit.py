import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snailtwpa import circuit
from snailtwpa.errors import NewtonDivergence, SnailTwpaError, WindowTooShort
from snailtwpa.circuit import (
    ChainConfig,
    RealizedChain,
    Spectrum,
    TimeTrace,
    Tone,
    build_chain,
    degenerate_gain_vs_phase,
    extract_spectrum,
    flux_sweep_idler,
    four_wave_drive,
    idler_frequencies,
    linear_transfer,
    read_levels,
    simulate_transient,
    simulate_transients,
    snap_drive,
    three_wave_drive,
)
from snailtwpa.snail import SnailParams, coefficients

F_PUMP = 7.705e9


def small_config(n=8, **kw):
    args = dict(n_cells=n, tan_delta=0.0, disorder_amplitude=0.0)
    args.update(kw)
    return ChainConfig(**args)


# --- build_chain ------------------------------------------------------------


def test_zero_disorder_cells_identical_up_to_flux_sign():
    chain = build_chain(ChainConfig(n_cells=6, disorder_amplitude=0.0), 0.3, f_ref=F_PUMP)
    assert np.all(chain.r_eff == chain.r_eff[0])
    assert np.all(chain.i_c_eff == chain.i_c_eff[0])
    np.testing.assert_array_equal(
        chain.phi_ext, np.array([1, -1, 1, -1, 1, -1]) * 2 * math.pi * 0.3
    )
    # opposite flux gives opposite working point and beta, same gamma
    assert chain.phi_star[1] == pytest.approx(-chain.phi_star[0], abs=1e-10)
    assert chain.beta[1] == pytest.approx(-chain.beta[0], abs=1e-12)
    assert chain.gamma[1] == pytest.approx(chain.gamma[0], abs=1e-12)


def test_same_seed_identical_chain():
    cfg = ChainConfig(n_cells=12, disorder_amplitude=0.05, rng_seed=17)
    a = build_chain(cfg, 0.45, f_ref=F_PUMP)
    b = build_chain(cfg, 0.45, f_ref=F_PUMP)
    np.testing.assert_array_equal(a.i_c_eff, b.i_c_eff)
    np.testing.assert_array_equal(a.r_eff, b.r_eff)
    np.testing.assert_array_equal(a.junction_factors, b.junction_factors)


def test_realized_chain_compares_and_hashes_by_identity():
    # its fields are arrays, which have no truth value: == and hash() must not raise
    cfg = ChainConfig(n_cells=12, disorder_amplitude=0.05, rng_seed=17)
    a = build_chain(cfg, 0.45, f_ref=F_PUMP)
    b = build_chain(cfg, 0.45, f_ref=F_PUMP)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def test_disorder_draw_matches_documented_procedure():
    # independent re-implementation of the seeded generator: default_rng,
    # uniform on [1-a, 1+a], shape (n_cells, 4), three large draws reduced
    # by the series harmonic mean, the fourth scaling the small junction
    cfg = ChainConfig(n_cells=9, disorder_amplitude=0.05, rng_seed=1)
    chain = build_chain(cfg, 0.2, f_ref=F_PUMP)
    rng = np.random.default_rng(1)
    factors = rng.uniform(0.95, 1.05, size=(9, 4))
    i_large = factors[:, :3] * cfg.i_c_nominal
    i_c_expected = 3.0 / np.sum(1.0 / i_large, axis=1)
    i_small = factors[:, 3] * (cfg.r * cfg.i_c_nominal)
    r_expected = i_small / i_c_expected
    np.testing.assert_array_equal(chain.i_c_eff, i_c_expected)
    np.testing.assert_array_equal(chain.r_eff, r_expected)
    assert np.all(np.abs(chain.i_c_eff / cfg.i_c_nominal - 1.0) < 0.05)


@pytest.mark.parametrize("disorder", [0.0, 0.05])
@pytest.mark.parametrize("flux", [0.0, 0.5, 0.59, 0.684])
def test_build_chain_is_each_cells_scalar_solve(flux, disorder):
    # the chain's one array solve gives every cell the bits of its own
    # scalar solve, signed zeros included (0.5 Phi0 puts phi_ext at +/-pi)
    chain = build_chain(ChainConfig(n_cells=60, disorder_amplitude=disorder, rng_seed=4), flux, f_ref=F_PUMP)
    cells = [
        coefficients(SnailParams(float(r), float(i_c), float(phi_ext)))
        for r, i_c, phi_ext in zip(chain.r_eff, chain.i_c_eff, chain.phi_ext)
    ]
    scalar = np.array([[c.phi_star, c.beta, c.gamma, c.inductance] for c in cells])
    array = np.stack([chain.phi_star, chain.beta, chain.gamma, chain.inductance], axis=1)
    np.testing.assert_array_equal(array.view(np.int64), scalar.view(np.int64))


@pytest.mark.parametrize("flux", [math.nan, 1000.001, -1000.001])
def test_build_chain_rejects_a_flux_beyond_the_snail_bound(flux):
    with pytest.raises(ValueError, match="phi_ext must be finite and within"):
        build_chain(ChainConfig(n_cells=4), flux, f_ref=F_PUMP)


def test_flux_polarity_validation():
    with pytest.raises(ValueError):
        ChainConfig(n_cells=4, flux_polarity=(1, -1, 1))
    with pytest.raises(ValueError):
        ChainConfig(n_cells=4, flux_polarity=(1, -1, 2, -1))
    # a sign is a number equal to +1 or -1: not rounded, not a bool or a string
    for bad in ((1.5, -1), (-1.9, 1), ("1", -1), (None, 1), (True, -1), (np.True_, -1), (math.nan, 1)):
        with pytest.raises(ValueError, match="flux_polarity must be n_cells entries of"):
            ChainConfig(n_cells=2, flux_polarity=bad)
    assert ChainConfig(n_cells=2, flux_polarity=(1.0, np.int64(-1))).flux_polarity == (1, -1)
    with pytest.raises(ValueError):
        ChainConfig(n_cells=4, disorder_amplitude=0.5)
    for bad in ({"n_cells": 4.5}, {"rng_seed": -1}, {"rng_seed": 1.5}):
        with pytest.raises(ValueError):
            ChainConfig(**bad)


def test_subnormal_critical_current_is_rejected_by_name():
    # 1/i_large overflows for a subnormal i_c_nominal, so i_c_eff is 0 and
    # r_eff infinite; the config is rejected for its current, not for 'r',
    # and without numpy warnings on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="'i_c_nominal'"):
            ChainConfig(n_cells=2, i_c_nominal=1e-310)
        with pytest.raises(ValueError, match="'i_c_nominal'"):
            ChainConfig(n_cells=2, i_c_nominal=math.inf)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["c_j", "c_g", "i_c_nominal", "z0", "tan_delta"])
def test_chain_config_rejects_a_non_finite_constant_by_name(name, value):
    # unchecked, an infinite c_g divides by zero in the solver, an infinite
    # z0 reads the dBm floor, and the rest fail as a tridiagonal solve
    with pytest.raises(ValueError, match=f"^'{name}' must be"):
        ChainConfig(n_cells=2, **{name: value})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["frequency", "peak_current", "phase"])
def test_tone_rejects_a_non_finite_number_by_name(name, value):
    # unchecked, a nan or infinite frequency fails in the bin arithmetic and
    # a nan or infinite current or phase as a tridiagonal solve
    with pytest.raises(ValueError, match=f"^tone {name} must be"):
        Tone(**{"frequency": F_PUMP, "peak_current": 1e-7, name: value})


def test_build_chain_fixes_the_shunt_resistance():
    cfg = ChainConfig(n_cells=4)
    assert build_chain(cfg, 0.59, f_ref=F_PUMP).esr == cfg.tan_delta / (2 * math.pi * F_PUMP * cfg.c_g)
    lossless = ChainConfig(n_cells=4, tan_delta=0.0)
    assert build_chain(lossless, 0.59, f_ref=F_PUMP).esr == 0.0


@pytest.mark.parametrize("f_ref", [-1e9, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("tan_delta", [2.1e-3, 0.0], ids=["lossy", "lossless"])
def test_build_chain_rejects_a_reference_frequency_that_sets_no_loss(f_ref, tan_delta):
    # unchecked on a lossy chain, -1e9 gives a negative ESR, 0.0 a bare
    # ZeroDivisionError, nan a nan ESR and inf a silently lossless chain
    with pytest.raises(ValueError, match="f_ref"):
        build_chain(ChainConfig(n_cells=2, tan_delta=tan_delta), 0.5, f_ref=f_ref)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n_cells=st.integers(2, 8),
    r=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    a=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**64 - 1),
    flux=st.floats(-1.0, 1.0),
)
def test_accepted_chain_config_builds_at_any_seed(n_cells, r, a, seed, flux):
    # a cell's r_eff = r * f_small * mean(1/f_large), each factor drawn from
    # [1-a, 1+a], lies in [r*(1-a)/(1+a), r*(1+a)/(1-a)]; a config is
    # rejected only when that upper end reaches 1/3 or the small junction's
    # critical current underflows, and an accepted one builds whatever the seed
    try:
        cfg = ChainConfig(n_cells=n_cells, r=r, disorder_amplitude=a, rng_seed=seed)
    except ValueError:
        i_small_min = r * ChainConfig.i_c_nominal * (1.0 - a)
        assert r * (1.0 + a) / (1.0 - a) >= (1.0 - 1e-9) / 3.0 or i_small_min < sys.float_info.min
        return
    chain = build_chain(cfg, flux, f_ref=F_PUMP)
    assert np.all(chain.r_eff < 1.0 / 3.0)


# --- drive snapping ---------------------------------------------------------


def test_drive_snapping_keeps_pump_exact():
    drive = snap_drive(tones=(Tone(F_PUMP, 1e-7),), window=60e-9)
    # the window adjusts so that the pump is exactly on the bin grid
    assert drive.tones[0].frequency == pytest.approx(F_PUMP, rel=1e-12)
    bins = drive.tones[0].frequency * drive.window
    assert bins == pytest.approx(round(bins), abs=1e-6)
    assert drive.window == pytest.approx(60e-9, rel=0.01)
    assert drive.resolution == pytest.approx(16.67e6, rel=0.005)


def test_drive_dt_default_and_bounds():
    drive = snap_drive(tones=(Tone(F_PUMP, 1e-7),), window=60e-9)
    assert drive.dt <= 1.0 / (256.0 * F_PUMP) * (1 + 1e-12)
    with pytest.raises(ValueError):
        snap_drive(tones=(Tone(F_PUMP, 1e-7),), window=60e-9, dt=1.0 / (32 * F_PUMP))


def test_drive_rejects_a_tone_nearer_0_hz_than_the_first_bin():
    # a 60 ns window's first bin is 16.7 MHz, so a 1 MHz tone has no bin
    with pytest.raises(ValueError, match=r"a 1e\+06 Hz tone is nearer 0 Hz"):
        snap_drive((Tone(F_PUMP, 1e-7), Tone(1e6, 1e-9)), window=60e-9)


@pytest.mark.parametrize(
    "bad",
    [
        {"dt": -1e-12},
        {"dt": 0.0},
        {"dt": math.nan},
        {"dt": math.inf},
        {"settle_time": -5e-9},
        {"settle_time": math.nan},
        {"settle_time": math.inf},
        {"window": math.inf},
    ],
)
@pytest.mark.parametrize("tones", [(Tone(F_PUMP, 1e-7),), ()], ids=["tone", "no-tone"])
def test_drive_spec_rejects_bad_dt_and_settle_time(tones, bad):
    # unchecked, a negative dt snaps to one step per window, an infinite
    # one to a single step, a negative settle time to no settle, and an
    # infinite window or settle time fails in the snapping arithmetic
    with pytest.raises(ValueError, match=next(iter(bad))):
        snap_drive(tones=tones, **{"window": 6e-9} | bad)


def test_three_and_four_wave_builders():
    d3 = three_wave_drive(F_PUMP, delta_bins=2)
    m_p = d3.tone_bin(d3.tones[0].frequency)
    m_s = d3.tone_bin(d3.tones[1].frequency)
    assert m_p % 2 == 0 and m_s == m_p // 2 - 2
    idlers = idler_frequencies(d3)
    assert idlers["three_wave"] == pytest.approx((m_p - m_s) / d3.window)

    d4 = four_wave_drive(F_PUMP, delta_bins=2)
    m_s4 = d4.tone_bin(d4.tones[1].frequency)
    assert m_s4 == d4.tone_bin(d4.tones[0].frequency) - 2


def test_tone_bin_rejects_an_off_grid_frequency():
    drive = three_wave_drive(F_PUMP)
    with pytest.raises(ValueError, match="is not on the"):
        drive.tone_bin(drive.tones[0].frequency + 0.5 * drive.resolution)


@pytest.mark.parametrize("builder", [three_wave_drive, four_wave_drive])
@pytest.mark.parametrize(
    "bad",
    [
        {"window": -1e-9},
        {"window": 0.0},
        {"settle_time": -1e-9},
        {"dt": -1e-12},
        {"window": math.inf},
        {"window": math.nan},
        {"settle_time": math.inf},
        {"dt": math.inf},
        {"delta_bins": 1000},  # signal below 0 Hz
        {"delta_bins": -100, "window": 6e-10},  # idler below 0 Hz
        {"delta_bins": 1.5},  # not a bin
    ],
)
def test_drive_builders_reject_off_grid_inputs(builder, bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        builder(F_PUMP, **bad)


# --- transient solver -------------------------------------------------------


def test_zero_drive_stays_at_rest():
    chain = build_chain(small_config(), 0.3, f_ref=F_PUMP)
    drive = snap_drive(tones=(), window=4e-9, settle_time=1e-9, dt=1e-12)
    trace = simulate_transient(chain, drive)
    assert np.max(np.abs(trace.samples)) < 1e-15
    assert np.max(np.abs(trace.input_samples)) < 1e-15


def test_linear_regime_against_frequency_domain_oracle():
    # weak on-grid tone far below the band edge: the transient bin
    # amplitude must match the independent nodal frequency-domain solve
    chain = build_chain(small_config(n=12), 0.25, f_ref=F_PUMP)
    drive = snap_drive(tones=(Tone(4.0e9, 0.0011e-6),), window=10e-9, settle_time=8e-9)
    f0 = drive.tones[0].frequency
    trace = simulate_transient(chain, drive)
    spec = extract_spectrum(trace, drive)
    amp_transient = math.sqrt(2.0 * spec.z0 * spec.power_watts[spec.bin_index(f0)])
    amp_oracle = abs(linear_transfer(chain, [f0])[0]) * 0.0011e-6
    assert amp_transient == pytest.approx(amp_oracle, rel=2e-3)
    # harmonics below -100 dBc
    fund_dbm = spec.power_dbm_at(f0)
    for harmonic in (2 * f0, 3 * f0):
        assert spec.power_dbm_at(harmonic) - fund_dbm < -100.0


def test_three_wave_idler_scales_with_signal_and_pump_amplitude():
    # the nonlinear regime, independent of the goldens: at weak drive the
    # 3WM idler is a second-order product, amplitude ~ I_pump * I_signal, so
    # doubling either current raises it by 20 log10 2 dB.  Measured: 6.030
    # (signal) and 6.009 dB (pump), against 6.021 dB
    cfg = small_config(n=20, flux_polarity=(1,) * 20)
    chain = build_chain(cfg, 0.59, f_ref=F_PUMP)
    currents = [(0.05e-6, 1.1e-9), (0.05e-6, 2.2e-9), (0.1e-6, 1.1e-9)]
    drives = [three_wave_drive(F_PUMP, p, s, window=8e-9, settle_time=8e-9) for p, s in currents]
    base, signal_doubled, pump_doubled = read_levels(
        [(chain, drive, idler_frequencies(drive)["three_wave"]) for drive in drives]
    )
    assert signal_doubled - base == pytest.approx(20.0 * math.log10(2.0), abs=0.05)
    assert pump_doubled - base == pytest.approx(20.0 * math.log10(2.0), abs=0.05)


def test_lossy_linear_regime_against_frequency_domain_oracle():
    # as above on a lossy chain whose shunt ESR sets tan_delta at the probe,
    # which checks the transient's shunt history recursion: the loss moves
    # the amplitude by about 3.4e-3, more than the tolerance
    drive = snap_drive(tones=(Tone(4.0e9, 0.0011e-6),), window=10e-9, settle_time=8e-9)
    f0 = drive.tones[0].frequency
    chain = build_chain(small_config(n=12, tan_delta=2.1e-3), 0.25, f_ref=f0)
    spec = extract_spectrum(simulate_transient(chain, drive), drive)
    amp_transient = math.sqrt(2.0 * spec.z0 * spec.power_watts[spec.bin_index(f0)])
    amp_oracle = abs(linear_transfer(chain, [f0])[0]) * 0.0011e-6
    assert amp_transient == pytest.approx(amp_oracle, rel=2e-3)
    lossless = build_chain(small_config(n=12), 0.25, f_ref=f0)
    assert abs(linear_transfer(lossless, [f0])[0]) * 0.0011e-6 != pytest.approx(amp_oracle, rel=2e-3)


@pytest.mark.parametrize("frequency", [0.0, -1e9, math.nan, math.inf])
def test_linear_transfer_rejects_a_frequency_that_is_not_positive_and_finite(frequency):
    with pytest.raises(ValueError, match="must be positive and finite"):
        linear_transfer(build_chain(small_config(), 0.25, f_ref=F_PUMP), [4.0e9, frequency])


def test_newton_divergence_reports_step(monkeypatch):
    # the validated dt keeps Newton robust even far beyond the physical
    # drive range, so the budget-exhaustion path is exercised directly
    chain = build_chain(small_config(), 0.3, f_ref=F_PUMP)
    drive = snap_drive(tones=(Tone(4.0e9, 0.5e-6),), window=5e-9, settle_time=0.0)
    monkeypatch.setattr(circuit, "MAX_NEWTON_ITER", 1)
    with pytest.raises(NewtonDivergence) as err:
        simulate_transient(chain, drive)
    assert err.value.step_index is not None


def test_determinism_bitwise():
    cfg = ChainConfig(n_cells=10, disorder_amplitude=0.05, rng_seed=3)
    drive = three_wave_drive(F_PUMP, window=8e-9, settle_time=4e-9)
    a = extract_spectrum(simulate_transient(build_chain(cfg, 0.5, f_ref=drive.tones[0].frequency), drive), drive)
    b = extract_spectrum(simulate_transient(build_chain(cfg, 0.5, f_ref=drive.tones[0].frequency), drive), drive)
    np.testing.assert_array_equal(a.power_watts, b.power_watts)
    np.testing.assert_array_equal(a.psd_dbm, b.psd_dbm)


def test_linearity_of_signal_bin():
    # pump off: doubling the drive amplitude moves the signal bin by
    # exactly 6.02 dB in the linear regime
    chain = build_chain(small_config(n=10), 0.4, f_ref=F_PUMP)
    drives = {
        scale: snap_drive(tones=(Tone(3.85e9, scale * 0.0011e-6),), window=8e-9, settle_time=6e-9)
        for scale in (1.0, 2.0)
    }
    gains = dict(zip(drives, read_levels([(chain, drive, drive.tones[0].frequency) for drive in drives.values()])))
    assert gains[2.0] - gains[1.0] == pytest.approx(20.0 * math.log10(2.0), abs=0.05)


def test_energy_balance_lossless():
    # passivity: power into the load never exceeds power delivered by the
    # source (lossless ladder, resistive ports only)
    cfg = small_config(n=10, tan_delta=0.0)
    chain = build_chain(cfg, 0.3, f_ref=F_PUMP)
    drive = snap_drive(tones=(Tone(4.0e9, 0.05e-6),), window=20e-9, settle_time=15e-9)
    trace = simulate_transient(chain, drive)
    sl = slice(drive.n_settle, drive.n_settle + drive.n_window)
    t_grid = trace.dt * np.arange(1, drive.n_total + 1)
    i_src = drive.source_current(t_grid)[sl]
    v_in = trace.input_samples[sl]
    p_delivered = np.mean((i_src - v_in / cfg.z0) * v_in)
    p_load = np.mean(trace.samples[sl] ** 2) / cfg.z0
    assert p_load <= p_delivered * 1.01
    assert p_load > 0.0


def test_dt_convergence_of_idler_bin():
    # halving dt from the default moves the reported idler power by < 0.1 dB
    cfg = ChainConfig(n_cells=40, disorder_amplitude=0.05, rng_seed=5)
    drives = {
        div: three_wave_drive(F_PUMP, window=8e-9, settle_time=5e-9, dt=1.0 / (div * F_PUMP)) for div in (256, 512)
    }
    readings = [
        (build_chain(cfg, 0.59, f_ref=drive.tones[0].frequency), drive, idler_frequencies(drive)["three_wave"])
        for drive in drives.values()
    ]
    levels = dict(zip(drives, read_levels(readings)))
    assert abs(levels[512] - levels[256]) < 0.1


def test_idler_line_present_with_disorder():
    # pump + signal at the reference drive levels produce a finite idler
    # line at f_p - f_s when disorder is on
    cfg = ChainConfig(n_cells=40, disorder_amplitude=0.05, rng_seed=2)
    drive = three_wave_drive(F_PUMP, window=15e-9, settle_time=10e-9)
    chain = build_chain(cfg, 0.59, f_ref=drive.tones[0].frequency)
    (idler,) = read_levels([(chain, drive, idler_frequencies(drive)["three_wave"])])
    assert idler > -260.0  # clearly above the numerical floor


# --- spectrum ----------------------------------------------------------------


def synthetic_trace(f0, amp, n_settle, n_window, dt, z0=50.0):
    n_total = n_settle + n_window
    t = dt * np.arange(1, n_total + 1)
    samples = amp * np.sin(2 * np.pi * f0 * t + 0.37)
    return TimeTrace(dt=dt, samples=samples, input_samples=np.zeros_like(samples), z0=z0)


def test_spectrum_pure_sine_single_bin():
    window = 20e-9
    n_window = 2000
    dt = window / n_window
    f0 = 25 / window  # exactly on-grid
    v0 = 3.2e-6
    drive = snap_drive(tones=(), window=window, settle_time=0.0, dt=dt)
    trace = synthetic_trace(f0, v0, 0, n_window, dt)
    spec = extract_spectrum(trace, drive)
    k = spec.bin_index(f0)
    assert spec.power_watts[k] == pytest.approx(v0**2 / (2 * 50.0), rel=1e-9)
    # all other bins at the float64 rounding floor (>= 250 dB down; exact
    # -300 dB is below what double-precision FFT rounding can represent)
    others = np.delete(spec.power_watts, k)
    assert np.max(others) < spec.power_watts[k] * 1e-25


def test_spectrum_parseval():
    window = 20e-9
    n_window = 2048
    dt = window / n_window
    drive = snap_drive(tones=(), window=window, settle_time=0.0, dt=dt)
    rng = np.random.default_rng(0)
    samples = 1e-6 * rng.standard_normal(n_window)
    trace = TimeTrace(dt=dt, samples=samples, input_samples=samples * 0, z0=50.0)
    spec = extract_spectrum(trace, drive)
    mean_square = np.mean(samples**2)
    assert np.sum(spec.power_watts) * 50.0 == pytest.approx(mean_square, rel=1e-9)


@pytest.mark.parametrize(
    "frequency, message", [(2.5e6, "is not on the bin grid"), (11e6, "is outside"), (-1e6, "is outside")]
)
def test_spectrum_bin_index_rejects_frequencies_it_has_no_bin_for(frequency, message):
    spec = Spectrum(psd_dbm=np.zeros(11), resolution=1e6, power_watts=np.zeros(11), z0=50.0)
    assert spec.bin_index(10e6) == 10
    with pytest.raises(ValueError, match=message):
        spec.bin_index(frequency)


def test_spectrum_resolution_sixty_ns():
    drive = snap_drive(tones=(Tone(F_PUMP, 1e-7),), window=60e-9)
    assert drive.resolution == pytest.approx(16.67e6, rel=0.005)


def test_window_too_short():
    drive = snap_drive(tones=(), window=20e-9, settle_time=10e-9, dt=1e-11)
    trace = synthetic_trace(1e9, 1e-6, 0, 100, 1e-11)
    with pytest.raises(WindowTooShort):
        extract_spectrum(trace, drive)


# --- sweeps ------------------------------------------------------------------


def test_flux_sweep_structure_and_fixed_realization():
    cfg = ChainConfig(n_cells=6, disorder_amplitude=0.05, rng_seed=11)
    d3 = three_wave_drive(F_PUMP, window=6e-9, settle_time=3e-9)
    d4 = four_wave_drive(F_PUMP, window=6e-9, settle_time=3e-9)
    flux = [0.45, 0.59]
    out = flux_sweep_idler(cfg, d3, d4, flux)
    assert out["flux"].tolist() == flux
    assert out["idler_3wm_dbm"].shape == (2,)
    assert np.all(np.isfinite(out["idler_4wm_dbm"]))
    # the disorder realization is flux-independent
    a = build_chain(cfg, 0.45, f_ref=F_PUMP)
    b = build_chain(cfg, 0.59, f_ref=F_PUMP)
    np.testing.assert_array_equal(a.junction_factors, b.junction_factors)


def test_degenerate_gain_rejects_non_degenerate_drive():
    drive = three_wave_drive(F_PUMP, 0.4e-6, 0.0011e-6, delta_bins=2, window=2e-9, settle_time=1e-9)
    with pytest.raises(ValueError, match="f_p/2"):
        degenerate_gain_vs_phase(ChainConfig(n_cells=4), 0.59, drive, [0.0])


def test_degenerate_gain_zero_pump_is_flat_zero():
    cfg = ChainConfig(n_cells=6, disorder_amplitude=0.05, rng_seed=4)
    drive = three_wave_drive(F_PUMP, 0.0, 0.0011e-6, delta_bins=0, window=6e-9, settle_time=3e-9)
    out = degenerate_gain_vs_phase(cfg, 0.59, drive, np.linspace(0, 2 * np.pi, 5))
    np.testing.assert_array_equal(out["gain_db"], np.zeros(5))


def test_degenerate_gain_periodic_in_2pi():
    cfg = ChainConfig(n_cells=8, disorder_amplitude=0.05, rng_seed=4)
    phases = np.array([0.8, 0.8 + 2 * np.pi])
    drive = three_wave_drive(F_PUMP, 0.4e-6, 0.0011e-6, delta_bins=0, window=6e-9, settle_time=3e-9)
    out = degenerate_gain_vs_phase(cfg, 0.59, drive, phases)
    assert abs(out["gain_db"][1] - out["gain_db"][0]) < 0.01


def test_three_wave_dip_at_half_flux_quantum():
    # beta vanishes at 0.5 Phi0, so the 3WM idler drops sharply there
    # relative to the flanking maxima (the M-shaped flux curve)
    cfg = ChainConfig(n_cells=20, disorder_amplitude=0.05, rng_seed=1)
    d3 = three_wave_drive(F_PUMP, window=15e-9, settle_time=8e-9)
    d4 = four_wave_drive(F_PUMP, window=15e-9, settle_time=8e-9)
    out = flux_sweep_idler(cfg, d3, d4, [0.45, 0.50, 0.59])
    i3 = out["idler_3wm_dbm"]
    assert i3[1] < i3[0] - 20.0
    assert i3[1] < i3[2] - 20.0


def test_polarity_cancellation_relative_to_uniform():
    # alternation suppresses the 3WM idler far below the uniform-polarity
    # coherent level (full criterion lives in the acceptance suite)
    drive = three_wave_drive(F_PUMP, window=15e-9, settle_time=10e-9)
    f_i = idler_frequencies(drive)["three_wave"]
    polarities = {"alt": None, "uniform": tuple([1] * 40)}
    chains = [
        build_chain(
            ChainConfig(n_cells=40, disorder_amplitude=0.0, flux_polarity=polarity), 0.59, f_ref=drive.tones[0].frequency
        )
        for polarity in polarities.values()
    ]
    levels = dict(zip(polarities, read_levels([(chain, drive, f_i) for chain in chains])))
    assert levels["uniform"] - levels["alt"] > 25.0


# --- batched integration -----------------------------------------------------


@pytest.fixture
def batches(monkeypatch):
    """The (runs, traces) of every call the sweeps make to simulate_transients."""
    made = []

    def recording(runs):
        traces = simulate_transients(runs)
        made.append((runs, traces))
        return traces

    monkeypatch.setattr(circuit, "simulate_transients", recording)
    return made


@pytest.mark.parametrize("signal_current", [0.0011e-6, 0.0], ids=["signal", "zero-drive-reference"])
def test_batched_gain_phase_members_match_serial_bitwise(batches, signal_current):
    # every member of the sweep's batch (pump-off reference + one run per
    # phase) equals its own serial run bit for bit; with no signal the
    # pump-off member is undriven, converges first and is held fixed while
    # the pumped members iterate
    cfg = ChainConfig(n_cells=8, disorder_amplitude=0.05, rng_seed=4)
    drive = three_wave_drive(F_PUMP, 0.8e-6, signal_current, delta_bins=0, window=2e-9, settle_time=1e-9)
    degenerate_gain_vs_phase(cfg, 0.59, drive, [0.0, 1.3, 2.9])
    assert len(batches) == 1
    members, traces = batches[0]
    assert len(members) == 4
    for (chain, drive), trace in zip(members, traces):
        serial = simulate_transient(chain, drive)
        assert trace.samples.tobytes() == serial.samples.tobytes()
        assert trace.input_samples.tobytes() == serial.input_samples.tobytes()


def test_batched_flux_sweep_matches_serial_loop():
    cfg = ChainConfig(n_cells=6, disorder_amplitude=0.05, rng_seed=11)
    d3 = three_wave_drive(F_PUMP, window=3e-9, settle_time=1e-9)
    d4 = four_wave_drive(F_PUMP, window=3e-9, settle_time=1e-9)
    flux = [0.4, 0.5, 0.59]
    out = flux_sweep_idler(cfg, d3, d4, flux)
    f3 = idler_frequencies(d3)["three_wave"]
    f4 = idler_frequencies(d4)["four_wave"]
    serial3, serial4 = [], []
    for phi in flux:
        chain = build_chain(cfg, phi, f_ref=d3.tones[0].frequency)
        serial3.append(extract_spectrum(simulate_transient(chain, d3), d3).power_dbm_at(f3))
        serial4.append(extract_spectrum(simulate_transient(chain, d4), d4).power_dbm_at(f4))
    assert out["idler_3wm_dbm"].tobytes() == np.array(serial3).tobytes()
    assert out["idler_4wm_dbm"].tobytes() == np.array(serial4).tobytes()


def test_flux_sweep_reads_the_4wm_idler_on_chains_built_at_its_own_pump():
    # with the 4WM pump away from the 3WM pump, the 4WM readings are those
    # of chains whose ESR is set at the 4WM pump, as the sweep documents
    cfg = ChainConfig(n_cells=6, rng_seed=1)
    d3 = three_wave_drive(F_PUMP, window=2e-9, settle_time=1e-9)
    d4 = four_wave_drive(9.0e9, window=2e-9, settle_time=1e-9)
    flux = [0.45, 0.59]
    f4 = idler_frequencies(d4)["four_wave"]
    own = read_levels([(build_chain(cfg, phi, f_ref=d4.tones[0].frequency), d4, f4) for phi in flux])
    assert flux_sweep_idler(cfg, d3, d4, flux)["idler_4wm_dbm"].tobytes() == own.tobytes()


def test_batch_newton_divergence_reports_first_failing_step(monkeypatch):
    # one Newton iteration per step: the undriven member converges at every
    # step, the driven one cannot, and the batch reports the driven
    # member's own failing step
    chain = build_chain(small_config(), 0.3, f_ref=F_PUMP)
    rest = snap_drive(tones=(), window=5e-9, settle_time=0.0, dt=1e-12)
    driven = snap_drive(tones=(Tone(4.0e9, 0.5e-6),), window=5e-9, settle_time=0.0, dt=1e-12)
    assert rest.n_total == driven.n_total and rest.dt == driven.dt
    monkeypatch.setattr(circuit, "MAX_NEWTON_ITER", 1)
    simulate_transient(chain, rest)
    with pytest.raises(NewtonDivergence) as serial:
        simulate_transient(chain, driven)
    with pytest.raises(NewtonDivergence) as batch:
        simulate_transients([(chain, rest), (chain, driven)])
    assert batch.value.step_index == serial.value.step_index
    assert str(batch.value) == str(serial.value)


@pytest.mark.parametrize("cpus", [1, 2])
def test_earliest_failure_over_groups_is_raised(forks, monkeypatch, cpus):
    # two lockstep groups (different dt): the first fails at step 1, the
    # second at step 0, so the second member's failure is the one reported,
    # whether it ran in this process (1 CPU) or in the child (2 CPUs)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    chain = build_chain(small_config(), 0.3, f_ref=F_PUMP)
    late = snap_drive(tones=(Tone(4.0e9, 1.2e-7),), window=5e-9, settle_time=0.0, dt=1e-12)
    early = snap_drive(tones=(Tone(4.0e9, 2e-8),), window=5e-9, settle_time=0.0, dt=2e-12)
    monkeypatch.setattr(circuit, "MAX_NEWTON_ITER", 2)
    serial = {}
    for name, drive in (("late", late), ("early", early)):
        with pytest.raises(NewtonDivergence) as err:
            simulate_transient(chain, drive)
        serial[name] = err.value
    assert serial["early"].step_index < serial["late"].step_index
    with pytest.raises(NewtonDivergence) as batch:
        simulate_transients([(chain, late), (chain, early)])
    assert len(forks) == cpus - 1
    assert batch.value.step_index == serial["early"].step_index
    assert batch.value.member_index == 1
    assert str(batch.value) == str(serial["early"])


# --- parts run in forked children ----------------------------------------------


def test_parallel_gain_phase_forks_once_and_matches_serial_bitwise(forks, batches):
    cfg = ChainConfig(n_cells=8, disorder_amplitude=0.05, rng_seed=4)
    drive = three_wave_drive(F_PUMP, 0.8e-6, 0.0011e-6, delta_bins=0, window=2e-9, settle_time=1e-9)
    degenerate_gain_vs_phase(cfg, 0.59, drive, [0.0, 1.3, 2.9, 4.4])
    assert len(forks) == 1
    (members, traces), = batches
    assert len(members) == 5
    for (chain, drive), trace in zip(members, traces):
        serial = simulate_transient(chain, drive)  # B = 1: never forks
        assert trace.samples.tobytes() == serial.samples.tobytes()
        assert trace.input_samples.tobytes() == serial.input_samples.tobytes()
        assert (trace.dt, trace.z0) == (serial.dt, serial.z0)
    assert len(forks) == 1


def test_lockstep_groups_run_in_one_fork_round(forks):
    # two single-member groups (different dt) on two CPUs: one part each,
    # so one child runs the second group while this process runs the first
    chain = build_chain(small_config(), 0.3, f_ref=F_PUMP)
    runs = [
        (chain, snap_drive(tones=(Tone(4.0e9, 1e-8),), window=1e-9, settle_time=0.0, dt=dt))
        for dt in (1e-12, 2e-12)
    ]
    traces = simulate_transients(runs)
    assert len(forks) == 1
    for (chain, drive), trace in zip(runs, traces):
        serial = simulate_transient(chain, drive)  # B = 1: never forks
        assert trace.samples.tobytes() == serial.samples.tobytes()
        assert trace.input_samples.tobytes() == serial.input_samples.tobytes()
        assert trace.dt == drive.dt
    assert len(forks) == 1


def test_read_levels_of_two_lockstep_groups_come_back_in_reading_order(forks):
    # readings A, B, A, B of two groups (another dt and step count) run in
    # one fork round; each level is its serial reading's, bit for bit
    chain = build_chain(small_config(), 0.3, f_ref=F_PUMP)
    drives = [
        snap_drive(tones=(Tone(4.0e9, current),), window=window, settle_time=0.0, dt=dt)
        for current in (1e-8, 2e-8)
        for dt, window in ((1e-12, 1e-9), (2e-12, 1.5e-9))
    ]
    levels = read_levels([(chain, drive, 4.0e9) for drive in drives])
    assert len(forks) == 1 and levels.dtype == np.float64
    serial = [extract_spectrum(simulate_transient(chain, drive), drive).power_dbm_at(4.0e9) for drive in drives]
    assert levels.tobytes() == np.array(serial).tobytes()


def test_a_process_runs_one_lockstep_batch_per_group_it_holds(forks, monkeypatch):
    # two groups of two members (different dt) on two CPUs: the members are
    # cut once, so this process runs the first group as one batch of two,
    # not as two batches of one, and the child runs the second
    parent = os.getpid()
    lockstep = circuit._lockstep
    sizes = []

    def recording(members):
        if os.getpid() == parent:
            sizes.append(len(members))
        return lockstep(members)

    monkeypatch.setattr(circuit, "_lockstep", recording)
    chain = build_chain(small_config(), 0.3, f_ref=F_PUMP)
    runs = [
        (chain, snap_drive(tones=(Tone(4.0e9, current),), window=1e-9, settle_time=0.0, dt=dt))
        for dt in (1e-12, 2e-12)
        for current in (1e-8, 2e-8)
    ]
    traces = simulate_transients(runs)
    assert len(forks) == 1 and sizes == [2]
    for (chain, drive), trace in zip(runs, traces):
        serial = simulate_transient(chain, drive)  # B = 1: never forks
        assert trace.samples.tobytes() == serial.samples.tobytes()
        assert trace.input_samples.tobytes() == serial.input_samples.tobytes()
        assert trace.dt == drive.dt


@pytest.mark.parametrize("cpus", [1, 2])
def test_batch_newton_divergence_in_process_and_in_child(forks, monkeypatch, cpus):
    # the undriven member converges, the driven one fails, in one lockstep
    # batch (1 CPU) or in the child's part (2 CPUs); either way the caller
    # gets the driven member's serial step index and message
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    chain = build_chain(small_config(), 0.3, f_ref=F_PUMP)
    rest = snap_drive(tones=(), window=5e-9, settle_time=0.0, dt=1e-12)
    driven = snap_drive(tones=(Tone(4.0e9, 0.5e-6),), window=5e-9, settle_time=0.0, dt=1e-12)
    monkeypatch.setattr(circuit, "MAX_NEWTON_ITER", 1)  # forked children inherit it
    with pytest.raises(NewtonDivergence) as serial:
        simulate_transient(chain, driven)
    with pytest.raises(NewtonDivergence) as batch:
        simulate_transients([(chain, rest), (chain, driven)])
    assert len(forks) == cpus - 1
    assert batch.value.step_index == serial.value.step_index
    assert batch.value.member_index == 1
    assert str(batch.value) == str(serial.value)


class FaultyLapack:
    """A stand-in for scipy's LAPACK whose dgtsv is ``real`` with one fault
    at the ``at``-th solve of the driven member: ``("info", k)`` reports a
    zero pivot at node k, ``("nan", k)`` writes NaN into the update at node
    k, and ``("huge", k)`` writes 1e300 there, a finite update far beyond
    any that converges.  The chains are at zero flux and the other member
    is undriven, so its right-hand side is exactly zero at every solve: the
    driven member is the one nonzero block, wherever it runs, alone or in a
    batch.  With ``at`` 0 it never faults and only counts the driven
    member's solves."""

    def __init__(self, real, fault, m, at=5):  # step 3: two solves at step 0, then one per step
        self.real, self.fault, self.m, self.at = real, fault, m, at
        self.seen = 0  # solves of the driven member

    def dgtsv(self, dl, d, du, b, *args, **kwargs):
        driven = [i for i, block in enumerate(b.reshape(-1, self.m)) if block.any()]
        du2, d_out, du_out, x, info = self.real(dl, d, du, b, *args, **kwargs)
        if driven:
            self.seen += 1
            if self.seen == self.at:
                (block,) = driven
                kind, node = self.fault
                if kind == "info":
                    info = block * self.m + node + 1
                else:
                    x[block * self.m + node] = math.nan if kind == "nan" else 1e300
        return du2, d_out, du_out, x, info


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "fault, message",
    [
        (("info", 2), "tridiagonal solve failed at step 3 (info=3)"),
        (("nan", 0), "tridiagonal solve failed at step 3 (info=0)"),
        (("nan", 3), "Newton update diverged at step 3"),
        (("huge", 3), "Newton update diverged at step 3"),
    ],
    ids=["info", "nan-at-node-0", "nan-at-node-3", "huge"],
)
def test_solver_failure_messages_in_a_batch(forks, monkeypatch, cpus, fault, message):
    # a failed solve names the step, the node (1-based LAPACK info, counted
    # within the member) and the member, as the serial run of that member
    # does, whether it ran in a batch of two (1 CPU) or in the child (2 CPUs);
    # an update at or beyond the divergence bound is a diverged step, not a
    # RuntimeWarning
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    cfg = small_config()
    chain = build_chain(cfg, 0.0, f_ref=F_PUMP)
    rest = snap_drive(tones=(), window=5e-9, settle_time=0.0, dt=1e-12)
    driven = snap_drive(tones=(Tone(4.0e9, 0.5e-6),), window=5e-9, settle_time=0.0, dt=1e-12)
    real = circuit._lapack().dgtsv
    monkeypatch.setattr(circuit, "lapack", FaultyLapack(real, fault, cfg.n_cells + 1))
    with pytest.raises(NewtonDivergence) as serial:
        simulate_transient(chain, driven)
    monkeypatch.setattr(circuit, "lapack", FaultyLapack(real, fault, cfg.n_cells + 1))
    with pytest.raises(NewtonDivergence) as batch:
        simulate_transients([(chain, rest), (chain, driven)])
    assert len(forks) == cpus - 1
    for err in (serial.value, batch.value):
        assert str(err) == message
        assert err.step_index == 3
    assert batch.value.member_index == 1


def test_newton_stops_on_the_measured_contraction(monkeypatch):
    # a member stops after one solve when its measured contraction predicts
    # a second update below tol, and re-measures it with a full step on
    # every (NEWTON_REFRESH + 1)-th step, the same steps for every member of
    # a batch, which pays for the union of its members' second solves; with
    # NEWTON_REFRESH 0 every step iterates to tol, which takes two solves
    # here.  The two traces agree within one tol.
    chain = build_chain(ChainConfig(n_cells=20, rng_seed=1), 0.59, f_ref=F_PUMP)
    drive = three_wave_drive(F_PUMP, window=2e-9, settle_time=1e-9)
    real = circuit._lapack().dgtsv
    refresh = circuit.NEWTON_REFRESH
    traces, per_step = [], []
    for every in (refresh, 0):
        monkeypatch.setattr(circuit, "NEWTON_REFRESH", every)
        counter = FaultyLapack(real, None, chain.config.n_cells + 1, at=0)  # never faults: counts
        monkeypatch.setattr(circuit, "lapack", counter)
        traces.append(simulate_transient(chain, drive))
        per_step.append(counter.seen / drive.n_total)
    assert refresh > 0 and per_step[0] <= 1.0 + 1.0 / refresh
    assert per_step[1] == 2.0
    ruled, full = traces
    v_max = max(np.abs(full.samples).max(), np.abs(full.input_samples).max())
    tol = circuit.NEWTON_TOL + 1e-10 * v_max
    assert np.abs(ruled.samples - full.samples).max() < tol
    assert np.abs(ruled.input_samples - full.input_samples).max() < tol


def test_a_batch_takes_the_solves_of_one_member_per_step(monkeypatch, batches):
    # every member of a lockstep batch re-measures its contraction on the
    # same steps, each (NEWTON_REFRESH + 1)-th, so those steps' second solves
    # are shared: the batch takes at most its costliest member's solves alone
    # plus each member's second solves off those steps.  Each member's trace
    # is still its own run's, bit for bit.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # one batch, in this process
    cfg = ChainConfig(n_cells=20, disorder_amplitude=0.05, rng_seed=1)
    drive = three_wave_drive(F_PUMP, 0.8e-6, 0.0011e-6, delta_bins=0, window=2e-9, settle_time=1e-9)
    real = circuit._lapack().dgtsv
    batch = FaultyLapack(real, None, cfg.n_cells + 1, at=0)  # never faults: counts
    monkeypatch.setattr(circuit, "lapack", batch)
    degenerate_gain_vs_phase(cfg, 0.59, drive, np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False))
    (members, traces), = batches
    assert len(members) == 5  # pump off, then 4 pump phases
    alone = []
    for member, trace in zip(members, traces):
        counter = FaultyLapack(real, None, cfg.n_cells + 1, at=0)
        monkeypatch.setattr(circuit, "lapack", counter)
        serial = simulate_transient(*member)
        assert trace.samples.tobytes() == serial.samples.tobytes()
        assert trace.input_samples.tobytes() == serial.input_samples.tobytes()
        alone.append(counter.seen)
    n_total = drive.n_total
    shared = -(-n_total // (circuit.NEWTON_REFRESH + 1))  # the steps on which every member re-measures
    assert batch.seen <= max(alone) + sum(solves - n_total - shared for solves in alone)


def test_solve_count_at_far_flux(monkeypatch):
    # near snail.MAX_PHI_EXT the junction angles are about 6.3e3 rad, where
    # a float64 ulp is 9.1e-13 rad; sin and cos from the tan of their half
    # angles still take each step to tol in as many solves, within 1 %, as
    # at 0.59 Phi0
    config = ChainConfig(n_cells=40, rng_seed=1)
    drive = three_wave_drive(F_PUMP, 0.8e-6, window=2e-9, settle_time=1e-9)
    real = circuit._lapack().dgtsv
    per_step = {}
    for flux in (0.59, 999.59, -999.41):
        counter = FaultyLapack(real, None, config.n_cells + 1, at=0)  # never faults: counts
        monkeypatch.setattr(circuit, "lapack", counter)
        simulate_transient(build_chain(config, flux, f_ref=F_PUMP), drive)
        per_step[flux] = counter.seen / drive.n_total
    assert per_step[999.59] == pytest.approx(per_step[0.59], rel=1e-2)
    assert per_step[-999.41] == pytest.approx(per_step[0.59], rel=1e-2)


def half_angle_sin_cos(x):
    """sin x and cos x as the transient step forms them, from
    circuit._half_angle_trig of x/2: 2 t/d and 2/d - 1."""
    half = 0.5 * np.asarray(x, dtype=float)
    tangents = np.ones((2,) + half.shape)
    out = np.empty_like(tangents)
    circuit._half_angle_trig(half, tangents, np.empty(half.shape), out)
    return 2.0 * out[0], 2.0 * out[1] - 1.0


@pytest.mark.parametrize("span", [7.0, 6.3e3])
def test_half_angle_sin_cos_agree_with_numpy(span):
    # [-7, 7] rad holds the angles of a chain near its working point, and
    # +/- 6.3e3 rad those near snail.MAX_PHI_EXT (test_solve_count_at_far_flux);
    # on 2e6 draws per span the largest errors were 1 ulp of 1 (sin) and 1.5 (cos)
    x = np.random.default_rng(7).uniform(-span, span, 200_000)
    s, c = half_angle_sin_cos(x)
    eps = np.finfo(float).eps
    assert np.abs(s - np.sin(x)).max() <= 2.0 * eps
    assert np.abs(c - np.cos(x)).max() <= 2.0 * eps


def test_half_angle_sin_cos_are_exact_at_special_angles():
    x = np.array([0.0, -0.0, math.pi, -math.pi, 1e-300])
    s, c = half_angle_sin_cos(x)
    assert s.tobytes() == np.sin(x).tobytes()  # the sign of -0.0 too
    assert c.tobytes() == np.cos(x).tobytes()


CIRCUITS = st.tuples(  # c_j, c_g, z0, tan_delta
    st.floats(25e-15, 100e-15), st.floats(125e-15, 500e-15), st.floats(25.0, 100.0), st.floats(0.0, 5e-3)
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_cells=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    pumps=st.lists(
        st.tuples(st.floats(0.0, 1e-6), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 0.6), CIRCUITS), max_size=3
    ),
    zero_at=st.integers(0, 3),
    zero_flux=st.floats(0.0, 0.6),
    zero_circuit=CIRCUITS,
    periods=st.integers(1, 2),
)
def test_batch_equals_each_member_alone(n_cells, seed, pumps, zero_at, zero_flux, zero_circuit, periods):
    # one lockstep batch of 1-4 members, each at its own flux and with its
    # own c_j, c_g, z0 and loss tangent (one of them undriven, the others
    # pumped at random phases and amplitudes), gives each member the bytes
    # of its own serial run
    pumps.insert(min(zero_at, len(pumps)), (0.0, 0.0, zero_flux, zero_circuit))
    runs = [
        (build_chain(ChainConfig(n_cells, c_j=c_j, c_g=c_g, z0=z0, tan_delta=tan_delta, rng_seed=seed), flux, F_PUMP),
         snap_drive(tones=(Tone(F_PUMP, amplitude, phase),), window=periods / F_PUMP, settle_time=0.0))
        for amplitude, phase, flux, (c_j, c_g, z0, tan_delta) in pumps
    ]
    lockstep = circuit._lockstep
    sizes = []

    def recording(members):
        sizes.append(len(members))
        return lockstep(members)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # one process
        patch.setattr(circuit, "_lockstep", recording)
        traces = simulate_transients(runs)
    assert sizes == [len(runs)]  # one batch, whatever the members' circuit constants
    for run, trace in zip(runs, traces):
        serial = simulate_transient(*run)
        assert trace.samples.tobytes() == serial.samples.tobytes()
        assert trace.input_samples.tobytes() == serial.input_samples.tobytes()


@pytest.mark.parametrize("fate", ["exit", "raise"])
def test_child_that_fails_otherwise_is_an_error(forks, monkeypatch, fate):
    parent = os.getpid()
    lockstep = circuit._lockstep

    def failing_in_child(*args):
        if os.getpid() != parent:
            if fate == "exit":
                os._exit(3)
            raise RuntimeError("lost in the child")
        return lockstep(*args)

    monkeypatch.setattr(circuit, "_lockstep", failing_in_child)
    chain = build_chain(small_config(), 0.3, f_ref=F_PUMP)
    drive = snap_drive(tones=(Tone(4.0e9, 1e-8),), window=1e-9, settle_time=0.0, dt=1e-12)
    expected = (SnailTwpaError, "exited with status 3") if fate == "exit" else (RuntimeError, "lost in the child")
    with pytest.raises(expected[0], match=expected[1]):
        simulate_transients([(chain, drive), (chain, drive)])
    assert len(forks) == 1


def test_batch_stays_in_process_while_another_thread_runs(forks):
    chain = build_chain(small_config(), 0.3, f_ref=F_PUMP)
    drive = snap_drive(tones=(Tone(4.0e9, 1e-8),), window=1e-9, settle_time=0.0, dt=1e-12)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60.0,))
    thread.start()
    try:
        traces = simulate_transients([(chain, drive), (chain, drive)])
    finally:
        release.set()
        thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert not forks
    assert traces[0].samples.tobytes() == traces[1].samples.tobytes()


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_batch_stays_in_process_without_fork_or_affinity(forks, monkeypatch, missing):
    monkeypatch.delattr(os, missing)
    chain = build_chain(small_config(), 0.3, f_ref=F_PUMP)
    drive = snap_drive(tones=(Tone(4.0e9, 1e-8),), window=1e-9, settle_time=0.0, dt=1e-12)
    traces = simulate_transients([(chain, drive), (chain, drive)])
    assert not forks
    assert traces[0].samples.tobytes() == traces[1].samples.tobytes()
