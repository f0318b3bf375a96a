"""Transient simulation of the SNAIL transmission line.

Circuit model (one unit cell, N cells total): the series branch between
node k-1 and node k is a SNAIL nonlinear inductor (evaluated through the
exact current-phase relation, not its Taylor form) in parallel with the
junction capacitance c_j; the shunt at node k is the ground capacitance
c_g in series with an equivalent series resistance representing the
dielectric loss tangent.  The input port is an ideal current source behind
z0 at node 0 and the line is terminated by z0 at node N.  External flux is
applied with alternating sign cell-to-cell, and per-junction critical
currents carry a bounded random spread.

Integration is fixed-step trapezoidal (A-stable) with a full Newton solve
per step.  Junction phases and the reactive branches enter through their
trapezoidal companion models, so each Newton iteration reduces to a
tridiagonal solve in the node voltages; the whole run is deterministic for
a given configuration and seed.

One private core, ``_integrate``, advances B independent runs (chain and
resolved drive) in lockstep; ``simulate_transient`` is its B = 1 case, and
the phase and flux sweeps pass all their runs at once.  The B chains are
laid end to end as one ladder of B*(N+1) nodes, joined by inert branches,
so each Newton iteration is one pass of elementwise operations and one
``dgtsv`` call over the whole batch.  The couplings across the inert
branches are exactly zero, so the elimination multiplier there is zero and
leaves the next member's pivot and right-hand side unchanged: every member
is solved with the same floating-point operations as a separate solve.
All other arithmetic is elementwise, in the same order as for a single run
(a few terms are evaluated negated, which IEEE rounding makes exact), and
a member that meets its own convergence test is held fixed while the
others iterate; each member's output is therefore bit-identical to running
it alone.

All drive tones are snapped onto the FFT bin grid of the analysis window;
the window itself is first adjusted so that the reference tone (the first
tone of the drive, by convention the pump) lies exactly on the grid.
Spectral readout therefore needs no leakage correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack

from .constants import PHI0
from .errors import NewtonDivergence, WindowTooShort
from .snail import SnailParams, coefficients, find_phi_star

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ChainConfig:
    """Device-level description of the SNAIL transmission line.

    n_cells            : number of unit cells
    c_j                : junction capacitance per cell, F
    c_g                : ground capacitance per cell, F
    i_c_nominal        : nominal large-junction critical current, A
    r                  : SNAIL junction size ratio
    tan_delta          : dielectric loss tangent of c_g
    flux_polarity      : per-cell flux sign pattern; None means alternating
                         (+1, -1, +1, ...)
    disorder_amplitude : fractional half-width of the uniform per-junction
                         critical-current spread (0.05 = +/- 5 %)
    rng_seed           : seed of the disorder draw
    z0                 : source/termination impedance, ohm
    """

    n_cells: int = 700
    c_j: float = 50e-15
    c_g: float = 250e-15
    i_c_nominal: float = 2.19e-6
    r: float = 0.07
    tan_delta: float = 2.1e-3
    flux_polarity: tuple | None = None
    disorder_amplitude: float = 0.05
    rng_seed: int = 0
    z0: float = 50.0

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError("n_cells must be >= 2")
        for name in ("c_j", "c_g", "i_c_nominal", "z0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.r < 1.0:
            raise ValueError("r must be in (0, 1)")
        if self.tan_delta < 0.0:
            raise ValueError("tan_delta must be >= 0")
        if not 0.0 <= self.disorder_amplitude <= 0.2:
            raise ValueError("disorder_amplitude must be in [0, 0.2]")
        if self.flux_polarity is not None:
            pol = tuple(int(s) for s in self.flux_polarity)
            if len(pol) != self.n_cells or any(s not in (-1, 1) for s in pol):
                raise ValueError("flux_polarity must be n_cells entries of +/-1")
            object.__setattr__(self, "flux_polarity", pol)

    def polarity(self) -> np.ndarray:
        if self.flux_polarity is not None:
            return np.array(self.flux_polarity, dtype=float)
        signs = np.ones(self.n_cells)
        signs[1::2] = -1.0
        return signs


@dataclass(frozen=True)
class Tone:
    """One drive tone: ``peak_current * sin(2*pi*frequency*t + phase)``."""

    frequency: float
    peak_current: float
    phase: float = 0.0

    def __post_init__(self):
        if self.frequency <= 0.0:
            raise ValueError("tone frequency must be positive")
        if self.peak_current < 0.0:
            raise ValueError("tone amplitude must be >= 0")


def _as_tone(t) -> Tone:
    return t if isinstance(t, Tone) else Tone(*t)


@dataclass(frozen=True)
class ResolvedDrive:
    """Grid-consistent drive: window, step and tones are mutually snapped."""

    tones: tuple
    window: float
    dt: float
    n_window: int
    n_settle: int
    n_total: int

    @property
    def duration(self) -> float:
        return self.n_total * self.dt

    @property
    def resolution(self) -> float:
        return 1.0 / self.window

    @property
    def settle_time(self) -> float:
        return self.n_settle * self.dt

    def tone_bin(self, frequency: float) -> int:
        b = frequency * self.window
        m = int(round(b))
        if abs(b - m) > 1e-6:
            raise ValueError(f"frequency {frequency} is not on the {self.resolution} Hz grid")
        return m

    def source_current(self, t: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(t, dtype=float))
        for tone in self.tones:
            out = out + tone.peak_current * np.sin(TWO_PI * tone.frequency * t + tone.phase)
        return out


@dataclass
class DriveSpec:
    """Requested drive; :meth:`resolve` snaps it onto the analysis grid.

    tones       : sequence of :class:`Tone` (or (f, amp, phase) tuples);
                  the first tone is the reference (pump) for gridding and
                  for the default time step
    duration    : total simulated time, s (default: settle + window)
    settle_time : discarded start-up interval, s
    window      : requested analysis window, s; adjusted to the nearest
                  integer number of reference-tone periods
    dt          : requested time step, s (default: reference period / 256,
                  which holds the spectral readout dt-converged to better
                  than 0.1 dB; must satisfy dt <= period/64 for every tone)
    """

    tones: tuple = ()
    duration: float | None = None
    settle_time: float = 10e-9
    window: float = 60e-9
    dt: float | None = None

    def resolve(self) -> ResolvedDrive:
        tones = tuple(_as_tone(t) for t in self.tones)
        if self.window <= 0.0:
            raise ValueError("window must be positive")
        if tones:
            f_ref = tones[0].frequency
            n_ref = max(int(round(self.window * f_ref)), 1)
            window = n_ref / f_ref
            snapped = []
            for tone in tones:
                m = max(int(round(tone.frequency * window)), 1)
                snapped.append(Tone(m / window, tone.peak_current, tone.phase))
            tones = tuple(snapped)
            dt_target = self.dt if self.dt is not None else 1.0 / (256.0 * f_ref)
            f_max = max(t.frequency for t in tones)
            if dt_target > 1.0 / (64.0 * f_max):
                raise ValueError(
                    f"dt = {dt_target:.3e} s exceeds 1/(64*f) for the "
                    f"{f_max:.4g} Hz tone"
                )
        else:
            window = self.window
            dt_target = self.dt if self.dt is not None else window / 4096.0
        n_window = max(int(math.ceil(window / dt_target - 1e-9)), 1)
        dt = window / n_window
        n_settle = int(math.ceil(self.settle_time / dt - 1e-9)) if self.settle_time > 0 else 0
        if self.duration is None:
            n_total = n_settle + n_window
        else:
            n_total = int(round(self.duration / dt))
            if n_total < n_settle + n_window:
                raise ValueError(
                    "duration too short: window must fit after the settle time"
                )
        return ResolvedDrive(
            tones=tones,
            window=window,
            dt=dt,
            n_window=n_window,
            n_settle=n_settle,
            n_total=n_total,
        )


@dataclass
class RealizedChain:
    """Chain with disorder applied: per-cell SNAIL parameters and the
    linearization at the flux working point."""

    config: ChainConfig
    flux: float  # external flux in Phi0 units (magnitude; sign per cell)
    f_ref: float | None
    junction_factors: np.ndarray  # (n_cells, 4) uniform draws
    r_eff: np.ndarray
    i_c_eff: np.ndarray
    phi_ext: np.ndarray  # signed, radians
    phi_star: np.ndarray
    alpha_tilde: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    inductance: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.config.n_cells

    def esr_ohms(self, f_ref: float | None = None) -> float:
        """Equivalent series resistance of c_g for loss tangent tan_delta,
        referenced at ``f_ref`` (defaults to the chain's pump frequency)."""
        if self.config.tan_delta == 0.0:
            return 0.0
        f = f_ref if f_ref is not None else self.f_ref
        if f is None:
            raise ValueError(
                "tan_delta > 0 requires a reference frequency for the ESR; "
                "pass f_ref or simulate with at least one tone"
            )
        return self.config.tan_delta / (TWO_PI * f * self.config.c_g)


def build_chain(config: ChainConfig, flux: float, f_ref: float | None = None) -> RealizedChain:
    """Realize the chain at an external flux (in Phi0 units).

    Disorder procedure (deterministic for a given ``rng_seed``): for each
    cell, four factors are drawn independently from the uniform
    distribution on [1-a, 1+a] (a = ``disorder_amplitude``), in the fixed
    order (large junction 1, large 2, large 3, small junction), using
    ``numpy.random.default_rng(rng_seed)`` with shape (n_cells, 4).  The
    three large-junction draws scale ``i_c_nominal`` and are reduced to a
    single effective junction via the series (harmonic-mean) inductance
    rule i_c_eff = 3 / sum(1/i_large); the small-junction draw scales
    ``r * i_c_nominal`` and sets r_eff = i_small / i_c_eff.  Cell k is
    biased at ``polarity[k] * flux``.
    """
    rng = np.random.default_rng(config.rng_seed)
    a = config.disorder_amplitude
    factors = rng.uniform(1.0 - a, 1.0 + a, size=(config.n_cells, 4))
    i_large = factors[:, :3] * config.i_c_nominal
    i_c_eff = 3.0 / np.sum(1.0 / i_large, axis=1)
    i_small = factors[:, 3] * (config.r * config.i_c_nominal)
    r_eff = i_small / i_c_eff
    phi_ext = config.polarity() * (TWO_PI * flux)

    n = config.n_cells
    phi_star = np.empty(n)
    alpha = np.empty(n)
    beta = np.empty(n)
    gamma = np.empty(n)
    inductance = np.empty(n)
    for k in range(n):
        params = SnailParams(r=float(r_eff[k]), i_c=float(i_c_eff[k]), phi_ext=float(phi_ext[k]))
        root = find_phi_star(params)
        c = coefficients(params, phi_star=root)
        phi_star[k] = root
        alpha[k] = c.alpha_tilde
        beta[k] = c.beta
        gamma[k] = c.gamma
        inductance[k] = c.inductance
    return RealizedChain(
        config=config,
        flux=flux,
        f_ref=f_ref,
        junction_factors=factors,
        r_eff=r_eff,
        i_c_eff=i_c_eff,
        phi_ext=phi_ext,
        phi_star=phi_star,
        alpha_tilde=alpha,
        beta=beta,
        gamma=gamma,
        inductance=inductance,
    )


@dataclass
class TimeTrace:
    """Simulated node voltages: ``samples[j]`` is the output-port voltage
    at t = (j+1)*dt; ``input_samples`` is the source node."""

    dt: float
    samples: np.ndarray
    input_samples: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.samples.size * self.dt


@dataclass
class Spectrum:
    """Single-sided power spectrum of the analysis window, referred into z0."""

    bin_frequencies: np.ndarray
    psd_dbm: np.ndarray
    resolution: float
    power_watts: np.ndarray
    z0: float

    def bin_index(self, frequency: float) -> int:
        m = int(round(frequency / self.resolution))
        if abs(frequency - m * self.resolution) > 1e-3 * self.resolution:
            raise ValueError(f"{frequency} Hz is not on the bin grid")
        if not 0 <= m < self.bin_frequencies.size:
            raise ValueError(f"{frequency} Hz is outside the spectrum")
        return m

    def power_dbm_at(self, frequency: float) -> float:
        return float(self.psd_dbm[self.bin_index(frequency)])


_DBM_FLOOR_WATTS = 1e-40


def simulate_transient(
    chain: RealizedChain,
    drive,
    newton_tol: float = 1e-15,
    max_newton_iter: int = 20,
) -> TimeTrace:
    """Integrate the chain under the given drive (DriveSpec or ResolvedDrive).

    Initial condition is the zero-current equilibrium (all node voltages
    zero, junction phases at their working points), so an undriven chain
    stays identically at rest.  Raises NewtonDivergence (with the failing
    step index) if a per-step Newton solve does not reach ``newton_tol``
    volts within ``max_newton_iter`` iterations.
    """
    resolved = drive.resolve() if isinstance(drive, DriveSpec) else drive
    return _integrate([(chain, resolved)], newton_tol, max_newton_iter)[0]


def _esr(chain: RealizedChain, resolved: ResolvedDrive) -> float:
    if chain.config.tan_delta == 0.0:
        return 0.0
    f_ref = chain.f_ref
    if f_ref is None and resolved.tones:
        f_ref = resolved.tones[0].frequency
    return chain.esr_ohms(f_ref)


def _integrate(members, newton_tol: float = 1e-15, max_newton_iter: int = 20) -> list:
    """Integrate (RealizedChain, ResolvedDrive) members; one TimeTrace each.

    Members that share the cell count, the circuit constants and the time
    grid advance in lockstep as one batch; members that differ run as
    separate batches.  The first member (in order) whose Newton solve fails
    at the earliest step raises NewtonDivergence with that step index.
    """
    groups = {}
    for i, (chain, resolved) in enumerate(members):
        cfg = chain.config
        key = (cfg.n_cells, cfg.c_j, cfg.c_g, cfg.z0, _esr(chain, resolved), resolved.dt, resolved.n_total)
        groups.setdefault(key, []).append(i)
    if len(groups) != 1:
        traces = [None] * len(members)
        for idx in groups.values():
            batch = _integrate([members[i] for i in idx], newton_tol, max_newton_iter)
            for i, trace in zip(idx, batch):
                traces[i] = trace
        return traces

    chains = [chain for chain, _ in members]
    drives = [resolved for _, resolved in members]
    cfg = chains[0].config
    esr = _esr(chains[0], drives[0])
    n = cfg.n_cells
    m = n + 1  # nodes per member
    nb = len(members)
    size = nb * m
    dt = drives[0].dt
    n_total = drives[0].n_total

    g_cj = 2.0 * cfg.c_j / dt
    half_dt_cg = dt / (2.0 * cfg.c_g)
    g_sh = 1.0 / (esr + half_dt_cg)
    g_port = 1.0 / cfg.z0
    c_phase = math.pi * dt / PHI0  # trapezoidal phase increment per volt

    # The batch is one ladder of nb*m nodes: node b*m + k is node k of
    # member b, and branch j joins nodes j and j+1.  Branch b*m + n, after
    # each member's output node, is inert: its junction terms are zero, its
    # current is overwritten by the output port current g_port*v[n], and
    # its conductance is g_port, which is what node n's diagonal and the
    # next member's node 0 need in that place.  So every per-branch and
    # per-node operation is one contiguous pass over the whole batch.
    def stacked(per_member):
        out = np.zeros((nb, m))
        out[:, :n] = per_member
        return out.reshape(-1)

    a1 = stacked([chain.r_eff * chain.i_c_eff for chain in chains])
    a2 = stacked([chain.i_c_eff for chain in chains])
    a2_3 = a2 / 3.0
    phi_ext = stacked([chain.phi_ext for chain in chains])
    phi = stacked([chain.phi_star for chain in chains])
    g_series = np.full(size, g_cj)
    g_series[n::m] = g_port
    g_shunt = np.full(size, g_sh)
    g_shunt[::m] = 0.0  # node 0 has no shunt; its diagonal is g_port + gb[0]

    t_grid = dt * np.arange(1, n_total + 1)
    i_src = np.stack([resolved.source_current(t_grid) for resolved in drives], axis=1)

    # Node voltages live in row 1 of a (2, nb*m) pair whose row 0 holds the
    # Newton right-hand side, which dgtsv overwrites with the update; two
    # pairs alternate as v and v_prev.
    views = []
    for pair in (np.zeros((2, size)), np.zeros((2, size))):
        v, rhs = pair[1], pair[0]
        views.append((pair.reshape(2, nb, m), v, v[:-1], v[1:], v[n::m], v[::m],
                      v.reshape(nb, m), v.reshape(nb, m)[:, ::n], rhs, rhs[::m], rhs.reshape(nb, m)))
    # the last branch has no right-hand node: its series voltage stays 0
    v_ser, v_ser_new = np.zeros(size), np.zeros(size)
    i_cj, i_sh, i_sh_new, v_cg = np.zeros((4, size))
    hist_cj, hist_sh, phi_new, arg, sin_phi, cos_phi, sin_arg, cos_arg, scratch = np.empty((9, size))
    abs_pair = np.empty((2, nb, m))
    maxima = np.empty((2, nb))
    # i_branch[0] and g_branch[0] pad the left of node 0 of member 0
    i_branch = np.zeros(size + 1)
    g_branch = np.empty(size + 1)
    g_branch[0] = g_port
    ib, ib_left, ib_ports, ib_in = i_branch[1:], i_branch[:-1], i_branch[1:][n::m], i_branch[1:][::m]
    gb, gb_left, gb_head = g_branch[1:], g_branch[:-1], g_branch[1:-1]
    diag = np.empty(size)
    off = np.empty(size - 1)
    off_inert = off[n::m]  # coupling between neighbouring members: exactly 0

    record = np.empty((nb, 2, n_total))  # [b, 0] input node, [b, 1] output node
    add, subtract, multiply, divide, negative = np.add, np.subtract, np.multiply, np.divide, np.negative
    sin, cos, absolute, max_reduce = np.sin, np.cos, np.absolute, np.maximum.reduce
    dgtsv = lapack.dgtsv
    all_members = list(range(nb))
    active = np.ones((nb, 1), dtype=bool)
    cur, prev = views
    errs = [math.inf] * nb

    for step in range(n_total):
        multiply(v_ser, -g_cj, hist_cj)
        subtract(hist_cj, i_cj, hist_cj)
        multiply(i_sh, half_dt_cg, hist_sh)
        add(v_cg, hist_sh, hist_sh)
        multiply(hist_sh, -g_sh, hist_sh)
        i_now = i_src[step]
        # linear extrapolation predictor, written over v_prev's buffer
        multiply(cur[1], 2.0, prev[8])
        subtract(prev[8], prev[1], prev[1])
        cur, prev = prev, cur
        pair, v, v_lo, v_hi, v_ports, v_in, v_rows, v_ends, rhs, rhs_in, rhs_rows = cur
        v_ser_head = v_ser_new[:-1]
        pending = all_members
        for _ in range(max_newton_iter):
            subtract(v_lo, v_hi, v_ser_head)
            add(v_ser_new, v_ser, phi_new)
            multiply(phi_new, c_phase, phi_new)
            add(phi, phi_new, phi_new)
            subtract(phi_new, phi_ext, arg)
            divide(arg, 3.0, arg)
            sin(phi_new, sin_phi)
            cos(phi_new, cos_phi)
            sin(arg, sin_arg)
            cos(arg, cos_arg)
            multiply(a1, sin_phi, sin_phi)
            multiply(a2, sin_arg, sin_arg)
            add(sin_phi, sin_arg, sin_phi)
            multiply(v_ser_new, g_cj, scratch)
            add(sin_phi, scratch, sin_phi)
            add(sin_phi, hist_cj, ib)
            multiply(v_ports, g_port, ib_ports)
            multiply(a1, cos_phi, cos_phi)
            multiply(a2_3, cos_arg, cos_arg)
            add(cos_phi, cos_arg, cos_phi)
            multiply(cos_phi, c_phase, cos_phi)
            add(cos_phi, g_series, gb)

            # right-hand side -residual, negated term by term (exact)
            multiply(v, -g_sh, rhs)
            subtract(rhs, hist_sh, rhs)
            subtract(ib_left, ib, scratch)
            add(rhs, scratch, rhs)
            multiply(v_in, -g_port, rhs_in)
            subtract(rhs_in, ib_in, rhs_in)
            add(rhs_in, i_now, rhs_in)

            add(gb_left, gb, diag)
            add(diag, g_shunt, diag)
            negative(gb_head, off)
            off_inert.fill(0.0)

            _, _, _, _, info = dgtsv(off, diag, off, rhs, overwrite_d=1, overwrite_b=1)
            if info != 0:
                raise NewtonDivergence(
                    f"tridiagonal solve failed at step {step} (info={(info - 1) % m + 1})",
                    step_index=step,
                )
            if pending is all_members:
                add(v, rhs, v)
            else:
                add(v_rows, rhs_rows, v_rows, where=active)
            absolute(pair, abs_pair)
            max_reduce(abs_pair, 2, None, maxima)
            errs, v_max = maxima.tolist()
            still = []
            for b in pending:
                err = errs[b]
                if not math.isfinite(err):
                    if not math.isfinite(rhs_in[b]):
                        raise NewtonDivergence(
                            f"tridiagonal solve failed at step {step} (info=0)",
                            step_index=step,
                        )
                    raise NewtonDivergence(f"Newton update diverged at step {step}", step_index=step)
                if not err < newton_tol + 1e-10 * v_max[b]:
                    still.append(b)
            if not still:
                break
            if len(still) < len(pending):
                active[:] = False
                active[still] = True
                pending = still
        else:
            raise NewtonDivergence(
                f"no Newton convergence at step {step} "
                f"(|dV| = {errs[pending[0]]:.3e} V after {max_newton_iter} iterations); "
                "reduce dt or the drive amplitude",
                step_index=step,
            )
        subtract(v_lo, v_hi, v_ser_head)
        add(v_ser_new, v_ser, scratch)
        multiply(scratch, c_phase, scratch)
        add(phi, scratch, phi)
        multiply(v_ser_new, g_cj, i_cj)
        add(i_cj, hist_cj, i_cj)
        multiply(v, g_sh, i_sh_new)
        add(i_sh_new, hist_sh, i_sh_new)
        add(i_sh_new, i_sh, scratch)
        multiply(scratch, half_dt_cg, scratch)
        add(v_cg, scratch, v_cg)
        i_sh, i_sh_new = i_sh_new, i_sh
        v_ser, v_ser_new = v_ser_new, v_ser
        record[:, :, step] = v_ends

    traces = []
    for b, (chain, resolved) in enumerate(members):
        metadata = {
            "n_cells": n,
            "flux": chain.flux,
            "rng_seed": chain.config.rng_seed,
            "disorder_amplitude": chain.config.disorder_amplitude,
            "esr_ohms": esr,
            "dt": dt,
            "window": resolved.window,
            "n_settle": resolved.n_settle,
            "n_window": resolved.n_window,
            "tones": [(t.frequency, t.peak_current, t.phase) for t in resolved.tones],
            "z0": cfg.z0,
        }
        traces.append(TimeTrace(dt=dt, samples=record[b, 1], input_samples=record[b, 0], metadata=metadata))
    return traces


def extract_spectrum(trace: TimeTrace, drive) -> Spectrum:
    """Rectangular-window FFT of the post-settle window, in dBm into z0.

    Tones are snapped to the bin grid, so no leakage correction is
    applied.  Bin powers are single-sided; a pure on-grid sine of
    amplitude V0 lands in one bin with power V0^2/(2*z0), and the bin
    powers sum to the mean-square of the analyzed segment divided by z0
    (Parseval).
    """
    resolved = drive.resolve() if isinstance(drive, DriveSpec) else drive
    n_settle, n_window = resolved.n_settle, resolved.n_window
    if trace.samples.size < n_settle + n_window:
        raise WindowTooShort(
            f"trace has {trace.samples.size} samples, need settle+window = "
            f"{n_settle + n_window}"
        )
    z0 = trace.metadata.get("z0", 50.0)
    seg = trace.samples[n_settle : n_settle + n_window]
    spec = np.fft.rfft(seg)
    power = np.abs(spec) ** 2 / (n_window**2 * z0)
    power[1:] *= 2.0
    if n_window % 2 == 0:
        power[-1] *= 0.5  # Nyquist bin is not doubled
    freqs = np.arange(power.size) / resolved.window
    psd_dbm = 10.0 * np.log10(np.maximum(power, _DBM_FLOOR_WATTS) / 1e-3)
    return Spectrum(
        bin_frequencies=freqs,
        psd_dbm=psd_dbm,
        resolution=resolved.resolution,
        power_watts=power,
        z0=z0,
    )


def three_wave_drive(
    f_pump: float,
    pump_current: float = 0.157e-6,
    signal_current: float = 0.0011e-6,
    delta_bins: int = 2,
    pump_phase: float = 0.0,
    window: float = 60e-9,
    settle_time: float = 10e-9,
    dt: float | None = None,
) -> DriveSpec:
    """Pump at f_p plus a weak signal at f_p/2 - delta; the 3WM idler is
    generated at f_p - f_s = f_p/2 + delta.  ``delta_bins`` counts FFT
    bins of the resolved window, which is snapped to an even number of
    pump periods so that f_p/2 is exactly on-grid."""
    n_half = max(int(round(window * f_pump / 2.0)), 1)
    window = 2.0 * n_half / f_pump
    spec = DriveSpec(
        tones=(Tone(f_pump, pump_current, pump_phase),),
        window=window,
        settle_time=settle_time,
        dt=dt,
    )
    resolved = spec.resolve()
    m_p = resolved.tone_bin(resolved.tones[0].frequency)
    f_signal = (m_p // 2 - delta_bins) / resolved.window
    return DriveSpec(
        tones=(
            Tone(f_pump, pump_current, pump_phase),
            Tone(f_signal, signal_current, 0.0),
        ),
        window=window,
        settle_time=settle_time,
        dt=dt,
    )


def four_wave_drive(
    f_pump: float,
    pump_current: float = 0.157e-6,
    signal_current: float = 0.0011e-6,
    delta_bins: int = 2,
    pump_phase: float = 0.0,
    window: float = 60e-9,
    settle_time: float = 10e-9,
    dt: float | None = None,
) -> DriveSpec:
    """Pump at f_p plus a weak signal at f_p - delta; the 4WM idler is
    generated at 2*f_p - f_s = f_p + delta."""
    spec = DriveSpec(
        tones=(Tone(f_pump, pump_current, pump_phase),),
        window=window,
        settle_time=settle_time,
        dt=dt,
    )
    resolved = spec.resolve()
    m_p = resolved.tone_bin(resolved.tones[0].frequency)
    f_signal = (m_p - delta_bins) / resolved.window
    return DriveSpec(
        tones=(
            Tone(f_pump, pump_current, pump_phase),
            Tone(f_signal, signal_current, 0.0),
        ),
        window=window,
        settle_time=settle_time,
        dt=dt,
    )


def degenerate_drive(
    f_pump: float,
    pump_current: float,
    signal_current: float,
    pump_phase: float = 0.0,
    window: float = 60e-9,
    settle_time: float = 10e-9,
    dt: float | None = None,
) -> DriveSpec:
    """Pump at f_p plus a signal exactly at f_p/2 (degenerate 3WM)."""
    return three_wave_drive(
        f_pump,
        pump_current=pump_current,
        signal_current=signal_current,
        delta_bins=0,
        pump_phase=pump_phase,
        window=window,
        settle_time=settle_time,
        dt=dt,
    )


def idler_frequencies(drive: DriveSpec) -> dict:
    """Idler bin frequencies for a (pump, signal) drive: f_p - f_s (3WM)
    and 2*f_p - f_s (4WM)."""
    resolved = drive.resolve()
    f_p = resolved.tones[0].frequency
    f_s = resolved.tones[1].frequency
    return {"three_wave": f_p - f_s, "four_wave": 2.0 * f_p - f_s}


def flux_sweep_idler(
    config: ChainConfig,
    drive_3wm: DriveSpec,
    drive_4wm: DriveSpec,
    flux_grid,
) -> dict:
    """Idler power vs external flux in both frequency configurations.

    For every flux point the same disorder realization (fixed by
    ``config.rng_seed``) is rebuilt at the new working point and both
    drives are simulated; reported are the 3WM idler bin (f_p - f_s of the
    3WM drive) and the 4WM idler bin (2*f_p - f_s of the 4WM drive), in
    dBm at the output port.
    """
    flux_grid = np.asarray(flux_grid, dtype=float)
    r3 = drive_3wm.resolve()
    r4 = drive_4wm.resolve()
    f_idler3 = idler_frequencies(drive_3wm)["three_wave"]
    f_idler4 = idler_frequencies(drive_4wm)["four_wave"]
    f_ref = r3.tones[0].frequency
    chains = [build_chain(config, float(flux), f_ref=f_ref) for flux in flux_grid]
    traces = _integrate([(chain, r3) for chain in chains] + [(chain, r4) for chain in chains])
    psd3 = np.array([extract_spectrum(t, r3).power_dbm_at(f_idler3) for t in traces[: len(chains)]])
    psd4 = np.array([extract_spectrum(t, r4).power_dbm_at(f_idler4) for t in traces[len(chains) :]])
    return {
        "flux": flux_grid,
        "idler_3wm_dbm": psd3,
        "idler_4wm_dbm": psd4,
        "f_idler_3wm": f_idler3,
        "f_idler_4wm": f_idler4,
    }


def degenerate_gain_vs_phase(
    config: ChainConfig,
    flux: float,
    pump: Tone,
    signal: Tone,
    phase_grid,
    window: float = 60e-9,
    settle_time: float = 10e-9,
    dt: float | None = None,
) -> dict:
    """Signal gain (dB) vs pump phase in the degenerate configuration.

    The signal is pinned to f_p/2 on the resolved grid; gain is the
    signal-bin power with the pump on minus the signal-bin power with the
    pump off (one pump-off reference run per sweep).
    """
    phase_grid = np.asarray(phase_grid, dtype=float)
    base = degenerate_drive(
        pump.frequency,
        pump_current=pump.peak_current,
        signal_current=signal.peak_current,
        window=window,
        settle_time=settle_time,
        dt=dt,
    )
    resolved = base.resolve()
    f_signal = resolved.tones[1].frequency
    if signal.frequency > 0 and abs(signal.frequency - f_signal) > 1e-3:
        if abs(signal.frequency - f_signal) > 1e-6 * f_signal:
            raise ValueError(
                f"signal must sit at f_p/2 = {f_signal} Hz on the grid, got {signal.frequency}"
            )
    chain = build_chain(config, flux, f_ref=resolved.tones[0].frequency)

    # all runs share the resolved grid exactly (same window, dt, settle)
    pump_on = resolved.tones[0]
    drive_off = replace(resolved, tones=(resolved.tones[1],))
    drives = [drive_off] + [
        replace(resolved, tones=(replace(pump_on, phase=float(phase)), resolved.tones[1]))
        for phase in phase_grid
    ]
    traces = _integrate([(chain, drive) for drive in drives])
    p_off = extract_spectrum(traces[0], drive_off).power_dbm_at(f_signal)
    gains = np.array(
        [extract_spectrum(t, d).power_dbm_at(f_signal) - p_off for t, d in zip(traces[1:], drives[1:])]
    )
    return {"phase": phase_grid, "gain_db": gains, "f_signal": f_signal, "pump_off_dbm": p_off}


def linear_transfer(chain: RealizedChain, frequencies, f_ref: float | None = None) -> np.ndarray:
    """Small-signal frequency-domain transfer: output-node voltage per
    ampere of source current, from the nodal equations linearized at the
    flux working point.

    Independent of the transient integrator; used as an oracle for the
    linear regime and for insertion-loss cross-checks.  The shunt ESR is
    the same fixed resistance the transient uses (referenced at f_ref).
    """
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    cfg = chain.config
    n = cfg.n_cells
    esr = chain.esr_ohms(f_ref) if cfg.tan_delta > 0.0 else 0.0
    g_port = 1.0 / cfg.z0
    out = np.empty(freqs.size, dtype=complex)
    for idx, f in enumerate(freqs):
        jw = 1j * TWO_PI * f
        y_ser = 1.0 / (jw * chain.inductance) + jw * cfg.c_j
        y_sh = (jw * cfg.c_g) / (1.0 + jw * cfg.c_g * esr)
        diag = np.empty(n + 1, dtype=complex)
        diag[0] = g_port + y_ser[0]
        diag[1:] = y_sh
        diag[1:-1] += y_ser[:-1] + y_ser[1:]
        diag[-1] += y_ser[-1] + g_port
        rhs = np.zeros(n + 1, dtype=complex)
        rhs[0] = 1.0
        _, _, _, x, info = lapack.zgtsv(-y_ser, diag, -y_ser, rhs)
        if info != 0:
            raise np.linalg.LinAlgError(f"zgtsv failed (info={info})")
        out[idx] = x[-1]
    return out
