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

The shunt ESR is a fixed resistance, set once when the chain is built:
:func:`build_chain` turns tan_delta into a resistance whose loss angle is
tan_delta at its ``f_ref`` (the pump, in both sweeps), and every solver
reads that one value, ``RealizedChain.esr``.  A lossy chain built without
``f_ref`` has no ESR, and solving it raises ValueError.

Integration is fixed-step trapezoidal (A-stable) with a full Newton solve
per step.  Junction phases and the reactive branches enter through their
trapezoidal companion models, so each Newton iteration reduces to a
tridiagonal solve in the node voltages; the whole run is deterministic for
a given configuration and seed.  The Newton tolerance and iteration limit
are the module constants ``NEWTON_TOL`` and ``MAX_NEWTON_ITER``, which the
solver reads from the module as it runs.

One private core, ``_integrate``, advances B independent runs (chain and
drive) in lockstep (``_lockstep``); ``simulate_transient`` is its
B = 1 case, and the phase and flux sweeps pass all their runs at once.  The B chains are
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

Members that cannot share a batch (another cell count, circuit constant
or time grid) form separate lockstep groups, which run one after another.
Each group is cut into at most P contiguous parts of near-equal size, and
so of near-equal cell-steps, where P is the number of CPUs this process
may run on (``os.sched_getaffinity``).  This process runs the first part;
a child made by ``os.fork`` runs each other part at the same time, sends
back only its members' input and output records, pickled over a pipe, and
leaves by ``os._exit``.  A member's arithmetic does not depend on the part
it runs in, so the traces do not depend on P.  The run stays in this
process when P is 1, when there is one member, when the platform has no
``fork`` or ``sched_getaffinity``, or when another thread is alive (the
child would inherit any lock that thread holds, held for ever).  Every part runs to its end or to
its first failure; NewtonDivergence is then raised for the earliest
failing step over all groups and parts, ties going to the lowest member
index, with the message a serial run of that member gives.  A child that
raises sends the exception back, to be raised here; a child that ends
without a reply raises SnailTwpaError naming its exit status.

A drive has one type, :class:`Drive`, made by :func:`snap_drive` or the
mixing-drive builders: its tones are snapped onto the FFT bin grid of the
analysis window, and the window itself is first adjusted so that the
reference tone (the first tone of the drive, by convention the pump) lies
exactly on the grid.  Spectral readout therefore needs no leakage
correction.

The tridiagonal solvers (``dgtsv`` here, ``zgtsv`` in ``linear_transfer``)
come from scipy's compiled LAPACK extension, ``scipy/linalg/_flapack``,
which this module loads from its file on the first access of its
``lapack`` attribute, not at import time: building chains and drives, and
every command that never solves, run without scipy, and a solve loads
neither the ``scipy`` nor the ``scipy.linalg`` package.
``scipy.linalg.lapack`` re-exports that extension's functions, so
``lapack.dgtsv`` here is ``scipy.linalg.lapack.dgtsv``, the same function
object.  The solvers read ``lapack`` from the module when they are called,
so a stand-in assigned to ``circuit.lapack`` sees every call.
"""

from __future__ import annotations

import importlib.util
import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .constants import PHI0
from .errors import NewtonDivergence, SnailTwpaError, WindowTooShort
from .snail import SnailParams, coefficients, find_phi_star

TWO_PI = 2.0 * math.pi
NEWTON_TOL = 1e-15  # V: a step converges when max |dV| < NEWTON_TOL + 1e-10 * max |V|
MAX_NEWTON_ITER = 20  # Newton iterations allowed per step


def __getattr__(name):
    # ``lapack`` (scipy's _flapack extension) is loaded on first access, so
    # that importing this module, and the commands that never solve, load
    # no scipy; it is loaded from its file, because importing it through
    # ``scipy.linalg`` runs that whole package
    if name == "lapack":
        scipy = importlib.util.find_spec("scipy")  # locates the package, runs none of it
        if scipy is None:
            raise ImportError("scipy, whose LAPACK extension does the solves, is not installed")
        directory = os.path.join(scipy.submodule_search_locations[0], "linalg")
        spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec("scipy.linalg._flapack")
        if spec is None:
            raise ImportError(f"scipy's LAPACK extension _flapack not found in {directory}")
        lapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(lapack)
        globals()["lapack"] = lapack
        return lapack
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _lapack():
    """The module attribute ``lapack``, read at call time (a bare global
    name read does not go through the module ``__getattr__`` above)."""
    return sys.modules[__name__].lapack


@dataclass(frozen=True)
class ChainConfig:
    """Device-level description of the SNAIL transmission line.

    n_cells            : number of unit cells
    c_j                : junction capacitance per cell, F
    c_g                : ground capacitance per cell, F
    i_c_nominal        : nominal large-junction critical current, A
    r                  : SNAIL junction size ratio (bounded, see below)
    tan_delta          : dielectric loss tangent of c_g
    flux_polarity      : per-cell flux sign pattern; None means alternating
                         (+1, -1, +1, ...)
    disorder_amplitude : fractional half-width of the uniform per-junction
                         critical-current spread (0.05 = +/- 5 %)
    rng_seed           : seed of the disorder draw
    z0                 : source/termination impedance, ohm

    A SNAIL is single-valued only for 0 < r_eff < 1/3
    (:class:`snail.SnailParams`), and a cell's r_eff lies between
    r*(1-a)/(1+a) and r*(1+a)/(1-a) (a = disorder_amplitude; the extremes
    have the three large junctions at one end of [1-a, 1+a] and the small
    one at the other).  A config whose extreme cells leave that range, or
    whose i_c_nominal gives them a non-finite or zero i_c_eff, is
    rejected.  The extremes are computed with :func:`build_chain`'s own
    arithmetic, whose rounding is monotone in each junction factor, and
    the draws lie in [1-a, 1+a]; so every accepted config builds, whatever
    the seed.
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
        if not (isinstance(self.n_cells, (int, np.integer)) and self.n_cells >= 2):
            raise ValueError(f"n_cells must be an integer >= 2, got {self.n_cells!r}")
        if not (isinstance(self.rng_seed, (int, np.integer)) and self.rng_seed >= 0):
            raise ValueError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")
        for name in ("c_j", "c_g", "i_c_nominal", "z0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.tan_delta < 0.0:
            raise ValueError("tan_delta must be >= 0")
        a = self.disorder_amplitude
        if not 0.0 <= a <= 0.2:
            raise ValueError("disorder_amplitude must be in [0, 0.2]")
        extremes = np.array([[1.0 - a] * 3 + [1.0 + a], [1.0 + a] * 3 + [1.0 - a]])
        with np.errstate(all="ignore"):  # a subnormal or huge i_c_nominal is reported below
            i_c_eff, (r_max, r_min) = _cell_ratios(self, extremes)
        if not (np.all(np.isfinite(i_c_eff)) and np.all(i_c_eff > 0.0)):
            raise ValueError(
                f"'i_c_nominal' = {self.i_c_nominal} with disorder_amplitude {a} gives cells with i_c_eff "
                f"in [{i_c_eff.min():.4g}, {i_c_eff.max():.4g}]; it must be finite and positive"
            )
        if not (0.0 < r_min and r_max < 1.0 / 3.0):
            raise ValueError(
                f"'r' = {self.r} with disorder_amplitude {a} gives cells with r_eff in "
                f"[{r_min:.4g}, {r_max:.4g}]; a single-valued SNAIL needs 0 < r_eff < 1/3"
            )
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


@dataclass(frozen=True)
class Drive:
    """Drive snapped onto its analysis grid by :func:`snap_drive`: window,
    step and tones are mutually consistent."""

    tones: tuple
    window: float
    dt: float
    n_window: int
    n_settle: int
    n_total: int

    @property
    def resolution(self) -> float:
        return 1.0 / self.window

    def resolve(self) -> Drive:
        """Itself.  Only the benchmark's workloads (perfbench/workloads.py)
        call it, on a drive builder's result."""
        return self

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


def snap_drive(tones, window: float = 60e-9, settle_time: float = 10e-9, dt: float | None = None) -> Drive:
    """The drive of ``tones`` snapped onto the analysis grid.

    tones       : sequence of :class:`Tone`; the first tone is the
                  reference (pump) for gridding and for the default step
    window      : requested analysis window, s; adjusted to the nearest
                  integer number of reference-tone periods
    settle_time : discarded start-up interval, s
    dt          : requested time step, s (default: reference period / 256,
                  which holds the spectral readout dt-converged to better
                  than 0.1 dB; must satisfy dt <= period/64 for every tone)

    Raises ValueError on a non-positive or non-finite window or dt, a
    negative or non-finite settle time, or a dt too coarse for a tone.
    """
    tones = tuple(tones)
    if not 0.0 < window < math.inf:
        raise ValueError(f"window must be positive and finite, got {window}")
    if not 0.0 <= settle_time < math.inf:
        raise ValueError(f"settle_time must be >= 0 and finite, got {settle_time}")
    if dt is not None and not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if tones:
        f_ref = tones[0].frequency
        n_ref = max(int(round(window * f_ref)), 1)
        window = n_ref / f_ref
        snapped = []
        for tone in tones:
            m = max(int(round(tone.frequency * window)), 1)
            snapped.append(Tone(m / window, tone.peak_current, tone.phase))
        tones = tuple(snapped)
        dt_target = dt if dt is not None else 1.0 / (256.0 * f_ref)
        f_max = max(t.frequency for t in tones)
        if dt_target > 1.0 / (64.0 * f_max):
            raise ValueError(
                f"dt = {dt_target:.3e} s exceeds 1/(64*f) for the "
                f"{f_max:.4g} Hz tone"
            )
    else:
        dt_target = dt if dt is not None else window / 4096.0
    n_window = max(int(math.ceil(window / dt_target - 1e-9)), 1)
    dt = window / n_window
    n_settle = int(math.ceil(settle_time / dt - 1e-9)) if settle_time > 0 else 0
    return Drive(
        tones=tones,
        window=window,
        dt=dt,
        n_window=n_window,
        n_settle=n_settle,
        n_total=n_settle + n_window,
    )


@dataclass
class RealizedChain:
    """Chain with disorder applied: per-cell SNAIL parameters, the
    linearization at the flux working point, and the shunt ESR that every
    solver uses, fixed by :func:`build_chain` from its ``f_ref`` (None for
    a lossy chain built without ``f_ref``, which no solver accepts)."""

    config: ChainConfig
    flux: float  # external flux in Phi0 units (magnitude; sign per cell)
    esr: float | None  # ohm
    junction_factors: np.ndarray  # (n_cells, 4) uniform draws
    r_eff: np.ndarray
    i_c_eff: np.ndarray
    phi_ext: np.ndarray  # signed, radians
    phi_star: np.ndarray
    alpha_tilde: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    inductance: np.ndarray


def _cell_ratios(config: ChainConfig, factors: np.ndarray) -> tuple:
    """(i_c_eff, r_eff) of cells with the given (n, 4) junction factors."""
    i_large = factors[:, :3] * config.i_c_nominal
    i_c_eff = 3.0 / np.sum(1.0 / i_large, axis=1)
    i_small = factors[:, 3] * (config.r * config.i_c_nominal)
    return i_c_eff, i_small / i_c_eff


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

    The shunt loss is fixed here too: the ESR of c_g is
    tan_delta/(2*pi*f_ref*c_g), so its loss angle is tan_delta exactly at
    ``f_ref`` (the sweeps pass the pump frequency).  A lossless chain has
    ESR 0.0 with or without ``f_ref``; a lossy chain built without it has
    none, and solving it raises ValueError.  An ``f_ref`` that is neither
    None nor positive and finite raises ValueError.
    """
    if f_ref is not None and not 0.0 < f_ref < math.inf:
        raise ValueError(f"f_ref must be None or positive and finite, got {f_ref}")
    if config.tan_delta == 0.0:
        esr = 0.0
    elif f_ref is not None:
        esr = config.tan_delta / (TWO_PI * f_ref * config.c_g)
    else:
        esr = None
    rng = np.random.default_rng(config.rng_seed)
    a = config.disorder_amplitude
    factors = rng.uniform(1.0 - a, 1.0 + a, size=(config.n_cells, 4))
    i_c_eff, r_eff = _cell_ratios(config, factors)
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
        esr=esr,
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
    at t = (j+1)*dt; ``input_samples`` is the source node; ``z0`` is the
    port impedance, ohm, that the spectrum refers the power into."""

    dt: float
    samples: np.ndarray
    input_samples: np.ndarray
    z0: float


@dataclass
class Spectrum:
    """Single-sided power spectrum of the analysis window, referred into z0."""

    psd_dbm: np.ndarray
    resolution: float
    power_watts: np.ndarray
    z0: float

    def bin_index(self, frequency: float) -> int:
        m = int(round(frequency / self.resolution))
        if abs(frequency - m * self.resolution) > 1e-3 * self.resolution:
            raise ValueError(f"{frequency} Hz is not on the bin grid")
        if not 0 <= m < self.psd_dbm.size:
            raise ValueError(f"{frequency} Hz is outside the spectrum")
        return m

    def power_dbm_at(self, frequency: float) -> float:
        return float(self.psd_dbm[self.bin_index(frequency)])


_DBM_FLOOR_WATTS = 1e-40


def simulate_transient(chain: RealizedChain, drive: Drive) -> TimeTrace:
    """Integrate the chain under the given drive.

    Initial condition is the zero-current equilibrium (all node voltages
    zero, junction phases at their working points), so an undriven chain
    stays identically at rest.  The shunt loss is the chain's own ESR,
    fixed at build; a lossy chain built without ``f_ref`` raises
    ValueError.  Raises NewtonDivergence (with the failing step index) if
    a per-step Newton solve does not reach ``NEWTON_TOL`` volts within
    ``MAX_NEWTON_ITER`` iterations (module constants).
    """
    return _integrate([(chain, drive)])[0]


def _check_shunt(chains) -> None:
    """Raise ValueError for a lossy chain built without f_ref (it has no ESR)."""
    if any(chain.esr is None for chain in chains):
        raise ValueError("a lossy chain (tan_delta > 0) has no shunt ESR; pass f_ref to build_chain to set it")


def _integrate(members) -> list:
    """Integrate (RealizedChain, Drive) members; one TimeTrace each.

    Members that share the cell count, the circuit constants and the time
    grid form a lockstep group; each group is cut into parts that run at
    once, in this process and in forked children (see the module
    docstring).  If a Newton solve fails, NewtonDivergence is raised for
    the earliest failing step over all members, ties going to the lowest
    member index, which it carries as ``member_index``.
    """
    _check_shunt(chain for chain, _ in members)
    groups = {}
    for i, (chain, drive) in enumerate(members):
        cfg = chain.config
        key = (cfg.n_cells, cfg.c_j, cfg.c_g, cfg.z0, chain.esr, drive.dt, drive.n_total)
        groups.setdefault(key, []).append(i)

    def run(part):
        return _lockstep([members[i] for i in part])

    n_parts = _parallel_parts(len(members))
    records = [None] * len(members)
    failures = []
    for idx in groups.values():
        k = min(n_parts, len(idx))
        cuts = [-(-j * len(idx) // k) for j in range(k + 1)]  # the first parts take the remainder
        parts = [idx[a:b] for a, b in zip(cuts, cuts[1:])]
        for part, outcome in zip(parts, _run_parts(run, parts)):
            if isinstance(outcome, NewtonDivergence):
                outcome.member_index = part[outcome.member_index]
                failures.append(outcome)
            else:
                for i, record in zip(part, outcome):
                    records[i] = record
    if failures:
        raise min(failures, key=lambda err: (err.step_index, err.member_index))

    return [
        TimeTrace(dt=drive.dt, samples=record[1], input_samples=record[0], z0=chain.config.z0)
        for (chain, drive), record in zip(members, records)
    ]


def _parallel_parts(n_members: int) -> int:
    """How many parts a lockstep group may be cut into: the usable CPUs, or
    1 where a child cannot or should not be forked."""
    if n_members < 2 or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1  # one run, or no fork or CPU affinity on this platform (Windows, macOS)
    if threading.active_count() > 1:
        return 1  # a child would inherit any lock another thread holds, held for ever
    return len(os.sched_getaffinity(0))


def _run_parts(run, parts) -> list:
    """``run(part)`` for every part, all at once: the first in this process,
    each other in a child forked for it.  An outcome is what ``run``
    returned or the NewtonDivergence it raised; any other exception, here
    or in a child, is raised, and so is SnailTwpaError for a child that
    ends without a reply."""
    if len(parts) > 1:
        _lapack()  # load scipy's LAPACK once, before the children copy this process
    children = []  # (pid, read end of its pipe), until reaped
    try:
        for part in parts[1:]:
            read_end, write_end = os.pipe()
            pipe = open(read_end, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _reply(run, part, write_end)
            finally:
                os.close(write_end)
            children.append((pid, pipe))
        try:
            outcomes = [run(parts[0])]
        except NewtonDivergence as err:
            outcomes = [err]
        while children:
            pid, pipe = children[0]
            with pipe:
                reply = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise SnailTwpaError(f"transient worker process {pid} {how} without sending its result")
            done, outcome = pickle.loads(reply)
            if not (done or isinstance(outcome, NewtonDivergence)):
                raise outcome
            outcomes.append(outcome)
        return outcomes
    finally:
        for pid, pipe in children:  # left only when this process raised: stop them
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _reply(run, part, write_end) -> None:
    """In a forked child: run one part, write (done, records or exception)
    to the parent and leave, never returning into the caller's code."""
    status = 1
    try:
        try:
            reply = (True, run(part))
        except BaseException as err:  # handed to the parent, which raises it
            reply = (False, err)
        data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _lockstep(members) -> np.ndarray:
    """Advance members of one lockstep group as one batch; their (B, 2,
    n_total) records of the input ([b, 0]) and output ([b, 1]) node.  A
    failure raises NewtonDivergence with the batch-local member_index."""
    chains = [chain for chain, _ in members]
    drives = [drive for _, drive in members]
    cfg = chains[0].config
    n = cfg.n_cells
    m = n + 1  # nodes per member
    nb = len(members)
    size = nb * m
    dt = drives[0].dt
    n_total = drives[0].n_total

    g_cj = 2.0 * cfg.c_j / dt
    half_dt_cg = dt / (2.0 * cfg.c_g)
    g_sh = 1.0 / (chains[0].esr + half_dt_cg)
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
    i_src = np.stack([drive.source_current(t_grid) for drive in drives], axis=1)

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
    dgtsv = _lapack().dgtsv
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
        for _ in range(MAX_NEWTON_ITER):
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
                    member_index=(info - 1) // m,
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
                            member_index=b,
                        )
                    raise NewtonDivergence(f"Newton update diverged at step {step}", step_index=step, member_index=b)
                if not err < NEWTON_TOL + 1e-10 * v_max[b]:
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
                f"(|dV| = {errs[pending[0]]:.3e} V after {MAX_NEWTON_ITER} iterations); "
                "reduce dt or the drive amplitude",
                step_index=step,
                member_index=pending[0],
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
    return record


def extract_spectrum(trace: TimeTrace, drive: Drive) -> Spectrum:
    """Rectangular-window FFT of the post-settle window, in dBm into z0.

    Tones are snapped to the bin grid, so no leakage correction is
    applied.  Bin powers are single-sided; a pure on-grid sine of
    amplitude V0 lands in one bin with power V0^2/(2*z0), and the bin
    powers sum to the mean-square of the analyzed segment divided by z0
    (Parseval).
    """
    n_settle, n_window = drive.n_settle, drive.n_window
    if trace.samples.size < n_settle + n_window:
        raise WindowTooShort(
            f"trace has {trace.samples.size} samples, need settle+window = "
            f"{n_settle + n_window}"
        )
    z0 = trace.z0
    seg = trace.samples[n_settle : n_settle + n_window]
    spec = np.fft.rfft(seg)
    power = np.abs(spec) ** 2 / (n_window**2 * z0)
    power[1:] *= 2.0
    if n_window % 2 == 0:
        power[-1] *= 0.5  # Nyquist bin is not doubled
    psd_dbm = 10.0 * np.log10(np.maximum(power, _DBM_FLOOR_WATTS) / 1e-3)
    return Spectrum(psd_dbm=psd_dbm, resolution=drive.resolution, power_watts=power, z0=z0)


def _mixing_drive(
    pump_photons: int, f_pump, pump_current, signal_current, delta_bins, window, settle_time, dt
) -> Drive:
    """Pump plus a weak signal ``delta_bins`` FFT bins below
    pump_photons*f_p/2, for the process that turns ``pump_photons`` pump
    photons into a signal and an idler (at pump_photons*f_p - f_s).  The
    window is snapped to whole pump periods, an even number for 3WM."""
    pump = Tone(f_pump, pump_current)
    if not 0.0 < window < math.inf:  # checked before the snapping arithmetic; snap_drive checks settle_time and dt
        raise ValueError(f"window must be positive and finite, got {window}")
    periods = 2 // pump_photons
    m_pump = periods * max(int(round(window * f_pump / periods)), 1)
    window = m_pump / f_pump
    m_signal = pump_photons * m_pump // 2 - delta_bins
    if not 0 < m_signal < pump_photons * m_pump:
        # snap_drive's dt rule keeps the tones, so also the idler, far below Nyquist
        raise ValueError(f"delta_bins = {delta_bins} puts the signal or the idler at or below 0 Hz")
    return snap_drive((pump, Tone(m_signal / window, signal_current, 0.0)), window, settle_time, dt)


def three_wave_drive(
    f_pump: float,
    pump_current: float = 0.157e-6,
    signal_current: float = 0.0011e-6,
    delta_bins: int = 2,
    window: float = 60e-9,
    settle_time: float = 10e-9,
    dt: float | None = None,
) -> Drive:
    """Pump at f_p plus a weak signal at f_p/2 - delta; the 3WM idler is
    generated at f_p - f_s = f_p/2 + delta.  ``delta_bins`` counts FFT
    bins of the snapped window, which is snapped to an even number of
    pump periods so that f_p/2 is exactly on-grid; 0 is the degenerate
    drive.  The pump has phase 0.  Raises ValueError on a non-positive or
    non-finite window or dt, a negative or non-finite settle time, or a
    signal or idler at or below 0 Hz."""
    return _mixing_drive(1, f_pump, pump_current, signal_current, delta_bins, window, settle_time, dt)


def four_wave_drive(
    f_pump: float,
    pump_current: float = 0.157e-6,
    signal_current: float = 0.0011e-6,
    delta_bins: int = 2,
    window: float = 60e-9,
    settle_time: float = 10e-9,
    dt: float | None = None,
) -> Drive:
    """Pump at f_p plus a weak signal at f_p - delta; the 4WM idler is
    generated at 2*f_p - f_s = f_p + delta.  Raises ValueError as
    :func:`three_wave_drive` does."""
    return _mixing_drive(2, f_pump, pump_current, signal_current, delta_bins, window, settle_time, dt)


def idler_frequencies(drive: Drive) -> dict:
    """Idler bin frequencies for a (pump, signal) drive: f_p - f_s (3WM)
    and 2*f_p - f_s (4WM)."""
    f_p = drive.tones[0].frequency
    f_s = drive.tones[1].frequency
    return {"three_wave": f_p - f_s, "four_wave": 2.0 * f_p - f_s}


def flux_sweep_idler(config: ChainConfig, drive_3wm: Drive, drive_4wm: Drive, flux_grid) -> dict:
    """Idler power vs external flux in both frequency configurations.

    The drives are (pump, signal) drives.  For every flux point the same
    disorder realization (fixed by ``config.rng_seed``) is rebuilt at the
    new working point and both drives are simulated; reported are the 3WM
    idler bin (f_p - f_s of the 3WM drive) and the 4WM idler bin
    (2*f_p - f_s of the 4WM drive), in dBm at the output port.
    """
    flux_grid = np.asarray(flux_grid, dtype=float)
    f_idler3 = idler_frequencies(drive_3wm)["three_wave"]
    f_idler4 = idler_frequencies(drive_4wm)["four_wave"]
    f_ref = drive_3wm.tones[0].frequency
    chains = [build_chain(config, float(flux), f_ref=f_ref) for flux in flux_grid]
    traces = _integrate([(chain, drive_3wm) for chain in chains] + [(chain, drive_4wm) for chain in chains])
    psd3 = np.array([extract_spectrum(t, drive_3wm).power_dbm_at(f_idler3) for t in traces[: len(chains)]])
    psd4 = np.array([extract_spectrum(t, drive_4wm).power_dbm_at(f_idler4) for t in traces[len(chains) :]])
    return {
        "flux": flux_grid,
        "idler_3wm_dbm": psd3,
        "idler_4wm_dbm": psd4,
        "f_idler_3wm": f_idler3,
        "f_idler_4wm": f_idler4,
    }


def degenerate_gain_vs_phase(config: ChainConfig, flux: float, drive: Drive, phase_grid) -> dict:
    """Signal gain (dB) vs pump phase in the degenerate configuration.

    ``drive`` is a (pump, signal) drive whose signal lies on the f_p/2
    bin of its grid, as ``three_wave_drive(..., delta_bins=0)`` builds it;
    each phase of ``phase_grid`` replaces the pump's phase.  Gain is the
    signal-bin power with the pump on minus the signal-bin power with the
    pump off (one pump-off reference run per sweep).  Raises ValueError
    when the signal is not on the f_p/2 bin.
    """
    phase_grid = np.asarray(phase_grid, dtype=float)
    pump_on, signal = drive.tones
    f_signal = signal.frequency
    if 2 * drive.tone_bin(f_signal) != drive.tone_bin(pump_on.frequency):
        raise ValueError(f"signal at {f_signal} Hz is not on the f_p/2 = {pump_on.frequency / 2} Hz bin")
    chain = build_chain(config, flux, f_ref=pump_on.frequency)

    # all runs share the drive's grid exactly (same window, dt, settle)
    drive_off = replace(drive, tones=(signal,))
    drives = [drive_off] + [
        replace(drive, tones=(replace(pump_on, phase=float(phase)), signal))
        for phase in phase_grid
    ]
    traces = _integrate([(chain, member) for member in drives])
    p_off = extract_spectrum(traces[0], drive_off).power_dbm_at(f_signal)
    gains = np.array(
        [extract_spectrum(t, d).power_dbm_at(f_signal) - p_off for t, d in zip(traces[1:], drives[1:])]
    )
    return {"phase": phase_grid, "gain_db": gains, "f_signal": f_signal, "pump_off_dbm": p_off}


def linear_transfer(chain: RealizedChain, frequencies) -> np.ndarray:
    """Small-signal frequency-domain transfer: output-node voltage per
    ampere of source current, from the nodal equations linearized at the
    flux working point.

    Independent of the transient integrator; used as an oracle for the
    linear regime and for insertion-loss cross-checks.  The shunt ESR is
    the chain's own, the fixed resistance the transient uses (set by
    build_chain at its f_ref); a lossy chain built without f_ref raises
    ValueError.
    """
    _check_shunt([chain])
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    cfg = chain.config
    n = cfg.n_cells
    g_port = 1.0 / cfg.z0
    out = np.empty(freqs.size, dtype=complex)
    zgtsv = _lapack().zgtsv
    for idx, f in enumerate(freqs):
        jw = 1j * TWO_PI * f
        y_ser = 1.0 / (jw * chain.inductance) + jw * cfg.c_j
        y_sh = (jw * cfg.c_g) / (1.0 + jw * cfg.c_g * chain.esr)
        diag = np.empty(n + 1, dtype=complex)
        diag[0] = g_port + y_ser[0]
        diag[1:] = y_sh
        diag[1:-1] += y_ser[:-1] + y_ser[1:]
        diag[-1] += y_ser[-1] + g_port
        rhs = np.zeros(n + 1, dtype=complex)
        rhs[0] = 1.0
        _, _, _, x, info = zgtsv(-y_ser, diag, -y_ser, rhs)
        if info != 0:
            raise np.linalg.LinAlgError(f"zgtsv failed (info={info})")
        out[idx] = x[-1]
    return out
