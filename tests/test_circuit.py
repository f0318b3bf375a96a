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
    simulate_transient,
    snap_drive,
    three_wave_drive,
)

F_PUMP = 7.705e9


def small_config(n=8, **kw):
    args = dict(n_cells=n, tan_delta=0.0, disorder_amplitude=0.0)
    args.update(kw)
    return ChainConfig(**args)


# --- build_chain ------------------------------------------------------------


def test_zero_disorder_cells_identical_up_to_flux_sign():
    chain = build_chain(ChainConfig(n_cells=6, disorder_amplitude=0.0), 0.3)
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
    a = build_chain(cfg, 0.45)
    b = build_chain(cfg, 0.45)
    np.testing.assert_array_equal(a.i_c_eff, b.i_c_eff)
    np.testing.assert_array_equal(a.r_eff, b.r_eff)
    np.testing.assert_array_equal(a.junction_factors, b.junction_factors)


def test_disorder_draw_matches_documented_procedure():
    # independent re-implementation of the seeded generator: default_rng,
    # uniform on [1-a, 1+a], shape (n_cells, 4), three large draws reduced
    # by the series harmonic mean, the fourth scaling the small junction
    cfg = ChainConfig(n_cells=9, disorder_amplitude=0.05, rng_seed=1)
    chain = build_chain(cfg, 0.2)
    rng = np.random.default_rng(1)
    factors = rng.uniform(0.95, 1.05, size=(9, 4))
    i_large = factors[:, :3] * cfg.i_c_nominal
    i_c_expected = 3.0 / np.sum(1.0 / i_large, axis=1)
    i_small = factors[:, 3] * (cfg.r * cfg.i_c_nominal)
    r_expected = i_small / i_c_expected
    np.testing.assert_array_equal(chain.i_c_eff, i_c_expected)
    np.testing.assert_array_equal(chain.r_eff, r_expected)
    assert np.all(np.abs(chain.i_c_eff / cfg.i_c_nominal - 1.0) < 0.05)


def test_flux_polarity_validation():
    with pytest.raises(ValueError):
        ChainConfig(n_cells=4, flux_polarity=(1, -1, 1))
    with pytest.raises(ValueError):
        ChainConfig(n_cells=4, flux_polarity=(1, -1, 2, -1))
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


def test_build_chain_fixes_the_shunt_resistance():
    cfg = ChainConfig(n_cells=4)
    assert build_chain(cfg, 0.59, f_ref=F_PUMP).esr == cfg.tan_delta / (2 * math.pi * F_PUMP * cfg.c_g)
    assert build_chain(cfg, 0.59).esr is None
    lossless = ChainConfig(n_cells=4, tan_delta=0.0)
    assert build_chain(lossless, 0.59).esr == 0.0
    assert build_chain(lossless, 0.59, f_ref=F_PUMP).esr == 0.0


@pytest.mark.parametrize("f_ref", [-1e9, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("tan_delta", [2.1e-3, 0.0], ids=["lossy", "lossless"])
def test_build_chain_rejects_a_reference_frequency_that_sets_no_loss(f_ref, tan_delta):
    # unchecked on a lossy chain, -1e9 gives a negative ESR, 0.0 a bare
    # ZeroDivisionError, nan a nan ESR and inf a silently lossless chain
    with pytest.raises(ValueError, match="f_ref"):
        build_chain(ChainConfig(n_cells=2, tan_delta=tan_delta), 0.5, f_ref=f_ref)


def test_lossy_chain_without_f_ref_cannot_be_solved():
    # a chain is one circuit whatever it is driven with: its ESR never
    # falls back to the drive's first tone, so a lossy chain built without
    # f_ref is refused by every solver
    chain = build_chain(ChainConfig(n_cells=4), 0.59)
    drive = three_wave_drive(F_PUMP, 0.0, 0.0011e-6, delta_bins=0, window=6e-10, settle_time=0.0)
    with pytest.raises(ValueError, match="f_ref"):
        simulate_transient(chain, drive)
    with pytest.raises(ValueError, match="f_ref"):
        circuit._integrate([(build_chain(ChainConfig(n_cells=4), 0.59, f_ref=F_PUMP), drive), (chain, drive)])
    with pytest.raises(ValueError, match="f_ref"):
        linear_transfer(chain, [4e9])


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
    chain = build_chain(cfg, flux)
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
    ],
)
def test_drive_builders_reject_off_grid_inputs(builder, bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        builder(F_PUMP, **bad)


# --- transient solver -------------------------------------------------------


def test_zero_drive_stays_at_rest():
    chain = build_chain(small_config(), 0.3)
    drive = snap_drive(tones=(), window=4e-9, settle_time=1e-9, dt=1e-12)
    trace = simulate_transient(chain, drive)
    assert np.max(np.abs(trace.samples)) < 1e-15
    assert np.max(np.abs(trace.input_samples)) < 1e-15


def test_linear_regime_against_frequency_domain_oracle():
    # weak on-grid tone far below the band edge: the transient bin
    # amplitude must match the independent nodal frequency-domain solve
    chain = build_chain(small_config(n=12), 0.25)
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


def test_newton_divergence_reports_step(monkeypatch):
    # the validated dt keeps Newton robust even far beyond the physical
    # drive range, so the budget-exhaustion path is exercised directly
    chain = build_chain(small_config(), 0.3)
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
    chain = build_chain(small_config(n=10), 0.4)
    gains = {}
    for scale in (1.0, 2.0):
        drive = snap_drive(
            tones=(Tone(3.85e9, scale * 0.0011e-6),), window=8e-9, settle_time=6e-9
        )
        spec = extract_spectrum(simulate_transient(chain, drive), drive)
        gains[scale] = spec.power_dbm_at(drive.tones[0].frequency)
    assert gains[2.0] - gains[1.0] == pytest.approx(20.0 * math.log10(2.0), abs=0.05)


def test_energy_balance_lossless():
    # passivity: power into the load never exceeds power delivered by the
    # source (lossless ladder, resistive ports only)
    cfg = small_config(n=10, tan_delta=0.0)
    chain = build_chain(cfg, 0.3)
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
    levels = {}
    for div in (256, 512):
        drive = three_wave_drive(
            F_PUMP, window=8e-9, settle_time=5e-9, dt=1.0 / (div * F_PUMP)
        )
        chain = build_chain(cfg, 0.59, f_ref=drive.tones[0].frequency)
        spec = extract_spectrum(simulate_transient(chain, drive), drive)
        levels[div] = spec.power_dbm_at(idler_frequencies(drive)["three_wave"])
    assert abs(levels[512] - levels[256]) < 0.1


def test_idler_line_present_with_disorder():
    # pump + signal at the reference drive levels produce a finite idler
    # line at f_p - f_s when disorder is on
    cfg = ChainConfig(n_cells=40, disorder_amplitude=0.05, rng_seed=2)
    drive = three_wave_drive(F_PUMP, window=15e-9, settle_time=10e-9)
    chain = build_chain(cfg, 0.59, f_ref=drive.tones[0].frequency)
    spec = extract_spectrum(simulate_transient(chain, drive), drive)
    idler = spec.power_dbm_at(idler_frequencies(drive)["three_wave"])
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
    a = build_chain(cfg, 0.45)
    b = build_chain(cfg, 0.59)
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
    levels = {}
    for name, polarity in (("alt", None), ("uniform", tuple([1] * 40))):
        cfg = ChainConfig(n_cells=40, disorder_amplitude=0.0, flux_polarity=polarity)
        chain = build_chain(cfg, 0.59, f_ref=drive.tones[0].frequency)
        spec = extract_spectrum(simulate_transient(chain, drive), drive)
        levels[name] = spec.power_dbm_at(f_i)
    assert levels["uniform"] - levels["alt"] > 25.0


# --- batched integration -----------------------------------------------------


@pytest.mark.parametrize("signal_current", [0.0011e-6, 0.0], ids=["signal", "zero-drive-reference"])
def test_batched_gain_phase_members_match_serial_bitwise(monkeypatch, signal_current):
    # every member of the sweep's batch (pump-off reference + one run per
    # phase) equals its own serial run bit for bit; with no signal the
    # pump-off member is undriven, converges first and is held fixed while
    # the pumped members iterate
    batches = []
    integrate = circuit._integrate

    def recording(members, *args, **kwargs):
        traces = integrate(members, *args, **kwargs)
        batches.append((members, traces))
        return traces

    monkeypatch.setattr(circuit, "_integrate", recording)
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


def test_batch_newton_divergence_reports_first_failing_step(monkeypatch):
    # one Newton iteration per step: the undriven member converges at every
    # step, the driven one cannot, and the batch reports the driven
    # member's own failing step
    chain = build_chain(small_config(), 0.3)
    rest = snap_drive(tones=(), window=5e-9, settle_time=0.0, dt=1e-12)
    driven = snap_drive(tones=(Tone(4.0e9, 0.5e-6),), window=5e-9, settle_time=0.0, dt=1e-12)
    assert rest.n_total == driven.n_total and rest.dt == driven.dt
    monkeypatch.setattr(circuit, "MAX_NEWTON_ITER", 1)
    simulate_transient(chain, rest)
    with pytest.raises(NewtonDivergence) as serial:
        simulate_transient(chain, driven)
    with pytest.raises(NewtonDivergence) as batch:
        circuit._integrate([(chain, rest), (chain, driven)])
    assert batch.value.step_index == serial.value.step_index
    assert str(batch.value) == str(serial.value)


def test_earliest_failure_over_groups_is_raised(monkeypatch):
    # two lockstep groups (different dt): the first fails at step 1, the
    # second at step 0, so the second member's failure is the one reported
    chain = build_chain(small_config(), 0.3)
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
        circuit._integrate([(chain, late), (chain, early)])
    assert batch.value.step_index == serial["early"].step_index
    assert batch.value.member_index == 1
    assert str(batch.value) == str(serial["early"])


# --- parts run in forked children ----------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs whatever the host has; the list of forks made."""
    if not hasattr(os, "fork"):
        pytest.skip("the platform cannot fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    made = []
    fork = os.fork

    def counting():
        made.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return made


def test_parallel_gain_phase_forks_once_and_matches_serial_bitwise(forks, monkeypatch):
    batches = []
    integrate = circuit._integrate

    def recording(members, *args, **kwargs):
        traces = integrate(members, *args, **kwargs)
        batches.append((members, traces))
        return traces

    monkeypatch.setattr(circuit, "_integrate", recording)
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


@pytest.mark.parametrize("cpus", [1, 2])
def test_batch_newton_divergence_in_process_and_in_child(forks, monkeypatch, cpus):
    # the undriven member converges, the driven one fails, in one lockstep
    # batch (1 CPU) or in the child's part (2 CPUs); either way the caller
    # gets the driven member's serial step index and message
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    chain = build_chain(small_config(), 0.3)
    rest = snap_drive(tones=(), window=5e-9, settle_time=0.0, dt=1e-12)
    driven = snap_drive(tones=(Tone(4.0e9, 0.5e-6),), window=5e-9, settle_time=0.0, dt=1e-12)
    monkeypatch.setattr(circuit, "MAX_NEWTON_ITER", 1)  # forked children inherit it
    with pytest.raises(NewtonDivergence) as serial:
        simulate_transient(chain, driven)
    with pytest.raises(NewtonDivergence) as batch:
        circuit._integrate([(chain, rest), (chain, driven)])
    assert len(forks) == cpus - 1
    assert batch.value.step_index == serial.value.step_index
    assert batch.value.member_index == 1
    assert str(batch.value) == str(serial.value)


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
    chain = build_chain(small_config(), 0.3)
    drive = snap_drive(tones=(Tone(4.0e9, 1e-8),), window=1e-9, settle_time=0.0, dt=1e-12)
    expected = (SnailTwpaError, "exited with status 3") if fate == "exit" else (RuntimeError, "lost in the child")
    with pytest.raises(expected[0], match=expected[1]):
        circuit._integrate([(chain, drive), (chain, drive)])
    assert len(forks) == 1


def test_batch_stays_in_process_while_another_thread_runs(forks):
    chain = build_chain(small_config(), 0.3)
    drive = snap_drive(tones=(Tone(4.0e9, 1e-8),), window=1e-9, settle_time=0.0, dt=1e-12)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60.0,))
    thread.start()
    try:
        traces = circuit._integrate([(chain, drive), (chain, drive)])
    finally:
        release.set()
        thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert not forks
    assert traces[0].samples.tobytes() == traces[1].samples.tobytes()


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_batch_stays_in_process_without_fork_or_affinity(forks, monkeypatch, missing):
    monkeypatch.delattr(os, missing)
    chain = build_chain(small_config(), 0.3)
    drive = snap_drive(tones=(Tone(4.0e9, 1e-8),), window=1e-9, settle_time=0.0, dt=1e-12)
    traces = circuit._integrate([(chain, drive), (chain, drive)])
    assert not forks
    assert traces[0].samples.tobytes() == traces[1].samples.tobytes()
