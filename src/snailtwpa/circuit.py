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
reads that one value, ``RealizedChain.esr``.

Integration is fixed-step trapezoidal (A-stable) with a Newton solve per
step.  Junction phases and the reactive branches enter through their
trapezoidal companion models, so each Newton iteration reduces to a
tridiagonal solve in the node voltages; the whole run is deterministic for
a given configuration and seed.  From one step to the next the solver
carries only the companion models' history sources (Dommel, IEEE Trans.
PAS-88, 388, 1969): hist_cj <- -2 g_cj v_ser - hist_cj for each c_j
(g_cj = 2 c_j/dt, v_ser the branch voltage), hist_sh <- alpha hist_sh +
beta v for each shunt, with alpha = (esr - h)/(esr + h), beta = -2 g_sh^2 h,
h = dt/(2 c_g) and g_sh = 1/(esr + h), and psi = phi + c_phase v_ser
(c_phase = pi dt/Phi0), so that an iterate's junction phase is psi +
c_phase v_ser and psi += 2 c_phase v_ser after the step.

The residual is evaluated in float64.  The Jacobian takes the cosines of
the junction angles in float32: it sets only the path of the iteration,
not the point the residual converges to (Kelley, Newton's Method in Mixed
Precision, SIAM Review 64, 191, 2022), and the float32 cosine is several
times faster.  An iterate whose max |V| reaches FLT_MAX/(8 c_phase
(n_total + 2)) has diverged, as one with a non-finite update has.  While
every iterate stays below that bound, every angle of the run, psi
included, stays below half the float32 range (the predictor at most
triples the bound, and psi grows by at most 4 c_phase times it per step),
so a diverging run ends in NewtonDivergence, not in an overflow.

A step has converged when its last update max |dV| is below tol =
NEWTON_TOL + 1e-10 * max |V|.  Newton converges quadratically, |d2| ~
L |d1|^2, and the contraction L changes little from one step to the next,
so a member also stops after its first update d1 when the update it
predicts, L^ |d1|^2, is below tol; L^ = |d2| / |d1|^2 is measured on that
member's last step that took a second iteration (the contraction monitor
of Deuflhard, Newton Methods for Nonlinear Problems, 2004, ch. 2; Hairer &
Wanner, Solving ODEs II, 1996, sec. IV.8).  Every other step iterates to
tol as a full Newton solve: every (NEWTON_REFRESH + 1)-th step, counted
from step 0, which re-measures L^; a step the rule cannot accept; and a
member's steps while it has no L^, before its first step that takes two
iterations and from a step that takes three to its next that takes two.
The re-measuring steps are the same for every member of a batch, because
a batch takes a second solve whenever any member needs one: it pays for
the union of its members' second solves, and steps set by each member's
own last measurement would drift apart.  So a 3WM run, alone or in a
batch, takes about 1 + 1/(NEWTON_REFRESH + 1) solves per step instead of
2, and its traces move by a fraction of tol.  The tolerance, the
iteration limit and the refresh are the module constants ``NEWTON_TOL``,
``MAX_NEWTON_ITER`` and ``NEWTON_REFRESH``, which the solver reads from
the module as it runs.

One private core, ``_integrate``, advances B independent runs (chain and
drive) in lockstep (``_lockstep``).  ``simulate_transients`` is the public
batch entry to it, which :func:`read_levels` calls with all the runs of a
sweep at once; ``simulate_transient`` is the B = 1 case.  The B chains are
laid end to end as one ladder of B*(N+1) nodes, joined by inert branches,
so each Newton iteration is one pass of elementwise operations and one
``dgtsv`` call over the whole batch.  The couplings across the inert
branches are exactly zero, so the elimination multiplier there is zero and
leaves the next member's pivot and right-hand side unchanged: every member
is solved with the same floating-point operations as a separate solve.
All other arithmetic is elementwise, in the same order as for a single run
(a few terms are evaluated negated, which IEEE rounding makes exact), a
member's stopping rule reads only its own updates, and a member that has
stopped is held fixed while the others iterate; each member's output is
therefore bit-identical to running it alone.

Below a few hundred cells a step's cost is the number of numpy calls, not
their arithmetic, so the step loop makes few and cheap ones: per Newton
iteration 20 to form the system, then the solve, the update and three for
the convergence check, and per step 10 for the predictor and the history
sources.  Every scalar operand is a 0-d float64 array made once per batch
(numpy converts a Python float operand on every call).  The junction
phase phi and the inner-loop angle (phi - phi_ext)/3 are the two rows of
one buffer, so one sin and one cos call fill [sin phi; sin arg; cos phi;
cos arg], one multiply weights the four rows by [a1; a2; -c_phase a1;
-c_phase a2/3], and one add sums rows (0, 2) with rows (1, 3) into the
junction current and minus its conductance.  The inert branches have zero
weights and conductance, and the port conductances are part of the shunts
of each member's end nodes, so the inert branch currents and the
couplings between members come out zero with no call of their own.

A batch shares only the cell count and the time grid: each member's own
c_j, c_g, z0 and ESR enter as its entries of the per-branch and per-node
coefficients.  Members that cannot share a batch (another cell count or
time grid) form separate lockstep groups.  :mod:`snailtwpa.parallel`
cuts the members, in group order, once into parts that run in one round,
in this process and in forked children; a part runs one lockstep batch
for each group it holds.  A member's arithmetic does not depend on the
batch it runs in, so the traces do not depend on the number of usable
CPUs.  scipy's LAPACK is loaded before the fork, so that the children
share this process's copy.  Every batch runs to its end or to its first
failure, whatever the other batches do; NewtonDivergence is then raised
for the earliest failing step over all batches, ties going to the lowest
member index, with the message a serial run of that member gives.

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
import itertools
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from . import parallel
from .constants import PHI0
from .errors import NewtonDivergence, WindowTooShort
from .snail import SnailParams, coefficients

TWO_PI = 2.0 * math.pi
NEWTON_TOL = 1e-15  # V: a step converges when max |dV| < NEWTON_TOL + 1e-10 * max |V|
MAX_NEWTON_ITER = 20  # Newton iterations allowed per step
# every (NEWTON_REFRESH + 1)-th step is a full solve that re-measures the
# Newton contraction, on the same steps for every run of a batch (module docstring)
NEWTON_REFRESH = 16


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
    flux_polarity      : per-cell flux sign pattern, n_cells numbers each
                         equal to +1 or -1; None means alternating
                         (+1, -1, +1, ...)
    disorder_amplitude : fractional half-width of the uniform per-junction
                         critical-current spread (0.05 = +/- 5 %)
    rng_seed           : seed of the disorder draw
    z0                 : source/termination impedance, ohm

    c_j, c_g, i_c_nominal and z0 must be positive and finite, tan_delta
    >= 0 and finite.

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
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"'{name}' must be positive and finite, got {getattr(self, name)}")
        if not 0.0 <= self.tan_delta < math.inf:
            raise ValueError(f"'tan_delta' must be >= 0 and finite, got {self.tan_delta}")
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
            pol = tuple(self.flux_polarity)  # a sign is a number equal to +/-1: not 1.5, a bool or a string
            if len(pol) != self.n_cells or any(isinstance(s, (bool, np.bool_)) or s not in (-1, 1) for s in pol):
                raise ValueError("flux_polarity must be n_cells entries of +/-1")
            object.__setattr__(self, "flux_polarity", tuple(int(s) for s in pol))

    def polarity(self) -> np.ndarray:
        if self.flux_polarity is not None:
            return np.array(self.flux_polarity, dtype=float)
        signs = np.ones(self.n_cells)
        signs[1::2] = -1.0
        return signs


@dataclass(frozen=True)
class Tone:
    """One drive tone: ``peak_current * sin(2*pi*frequency*t + phase)``,
    with a positive frequency, a peak current >= 0, and all three finite."""

    frequency: float
    peak_current: float
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.frequency < math.inf:
            raise ValueError(f"tone frequency must be positive and finite, got {self.frequency}")
        if not 0.0 <= self.peak_current < math.inf:
            raise ValueError(f"tone peak_current must be >= 0 and finite, got {self.peak_current}")
        if not math.isfinite(self.phase):
            raise ValueError(f"tone phase must be finite, got {self.phase}")


@dataclass(frozen=True)
class Drive:
    """Drive snapped onto its analysis grid by :func:`snap_drive`: window,
    step and tones are mutually consistent."""

    tones: tuple
    window: float
    dt: float
    n_window: int
    n_settle: int

    @property
    def n_total(self) -> int:
        return self.n_settle + self.n_window

    @property
    def resolution(self) -> float:
        return 1.0 / self.window

    def resolve(self) -> Drive:
        """Itself.  Only the benchmark (perfbench/workloads.py and
        perfbench/tracing.py) calls it, on a drive builder's result."""
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
    dt          : requested time step, s (default: reference period / 256;
                  with a whole-period settle the 3WM idler of a 100-cell
                  alternating chain at 0.157 uA reads 0.26 dB from its
                  period/1024 value, see ROADMAP item 5, "The dt part of a
                  reading's error budget"; the 0.164 dB that halving it
                  moved the same chain at 0.8 uA was taken with a 10 ns
                  settle, so it also holds the window-start part, ROADMAP
                  item 2; must satisfy dt <= period/64 for every tone)

    Raises ValueError on a non-positive or non-finite window or dt, a
    negative or non-finite settle time, a dt too coarse for a tone, or a
    tone nearer 0 Hz than the window's first bin.
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
        bins = [round(tone.frequency * window) for tone in tones]
        if 0 in bins:
            raise ValueError(f"a {tones[bins.index(0)].frequency:.4g} Hz tone is nearer 0 Hz than bin 1 of the window")
        tones = tuple(replace(tone, frequency=m / window) for tone, m in zip(tones, bins))
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
    return Drive(tones=tones, window=window, dt=dt, n_window=n_window, n_settle=n_settle)


@dataclass
class RealizedChain:
    """Chain with disorder applied: per-cell SNAIL parameters, the
    linearization at the flux working point, and the shunt ESR that every
    solver uses, fixed by :func:`build_chain` from its ``f_ref``."""

    config: ChainConfig
    esr: float  # ohm
    junction_factors: np.ndarray  # (n_cells, 4) uniform draws
    r_eff: np.ndarray
    i_c_eff: np.ndarray
    phi_ext: np.ndarray  # signed, radians
    phi_star: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    inductance: np.ndarray


def _cell_ratios(config: ChainConfig, factors: np.ndarray) -> tuple:
    """(i_c_eff, r_eff) of cells with the given (n, 4) junction factors."""
    i_large = factors[:, :3] * config.i_c_nominal
    i_c_eff = 3.0 / np.sum(1.0 / i_large, axis=1)
    i_small = factors[:, 3] * (config.r * config.i_c_nominal)
    return i_c_eff, i_small / i_c_eff


def build_chain(config: ChainConfig, flux: float, f_ref: float) -> RealizedChain:
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
    biased at ``polarity[k] * flux``.  All cells are solved in one array
    call of :func:`snail.coefficients`, each with the bits of its scalar
    solve; a flux that is nan or beyond 1000 Phi0 raises ValueError.

    The shunt loss is fixed here too: the ESR of c_g is
    tan_delta/(2*pi*f_ref*c_g), so its loss angle is tan_delta exactly at
    ``f_ref`` (the sweeps pass the pump frequency), and a lossless chain
    has ESR 0.0.  An ``f_ref`` that is not positive and finite raises
    ValueError.
    """
    if not 0.0 < f_ref < math.inf:
        raise ValueError(f"f_ref must be positive and finite, got {f_ref}")
    rng = np.random.default_rng(config.rng_seed)
    a = config.disorder_amplitude
    factors = rng.uniform(1.0 - a, 1.0 + a, size=(config.n_cells, 4))
    i_c_eff, r_eff = _cell_ratios(config, factors)
    phi_ext = config.polarity() * (TWO_PI * flux)
    c = coefficients(SnailParams(r=r_eff, i_c=i_c_eff, phi_ext=phi_ext))
    return RealizedChain(
        config=config,
        esr=config.tan_delta / (TWO_PI * f_ref * config.c_g),
        junction_factors=factors,
        r_eff=r_eff,
        i_c_eff=i_c_eff,
        phi_ext=phi_ext,
        phi_star=c.phi_star,
        beta=c.beta,
        gamma=c.gamma,
        inductance=c.inductance,
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
    fixed at build.  A step stops when its update, or the update that its
    measured contraction predicts, is below the tolerance (module
    docstring), so most steps take one tridiagonal solve.  Raises
    NewtonDivergence (with the failing step index) if a per-step Newton
    solve does not reach ``NEWTON_TOL`` volts within ``MAX_NEWTON_ITER``
    iterations (module constants).
    """
    return _integrate([(chain, drive)])[0]


def simulate_transients(runs) -> list[TimeTrace]:
    """Integrate independent (RealizedChain, Drive) runs; one TimeTrace each,
    bit-identical to ``simulate_transient`` of that run.

    Runs that share the cell count and the time grid form a lockstep group,
    whatever their circuit constants; the runs, in group order, are cut into
    parts that all run at once, in this process and in forked children (see
    the module docstring).  If a Newton solve fails, NewtonDivergence is raised
    for the earliest failing step over all runs, ties going to the lowest
    run index, which it carries as ``member_index``.
    """
    return _integrate(runs)


def _integrate(members) -> list:
    """``simulate_transients(members)``.  ``simulate_transient`` calls this
    core, not the public batch entry, so that a single run is one call of
    one public function (the benchmark's tracer counts the solves inside
    it)."""
    keys = [(chain.config.n_cells, drive.dt, drive.n_total) for chain, drive in members]  # a member's lockstep group

    def run(part):
        """One lockstep batch per run of equal keys in ``part``: the traces
        by member index, and the failures, each run to its end."""
        traces, failures = {}, []
        for _, same in itertools.groupby(part, key=keys.__getitem__):
            idx = list(same)
            try:
                traces.update(zip(idx, _lockstep([members[i] for i in idx])))
            except NewtonDivergence as err:  # an outcome: the part's other groups run on
                err.member_index = idx[err.member_index]
                failures.append(err)
        return traces, failures

    _lapack()  # load scipy's LAPACK once, before any child copies this process
    traces, failures = {}, []
    in_group_order = sorted(range(len(members)), key=lambda i: keys.index(keys[i]))  # a stable sort
    for done, failed in parallel.map_parts(run, in_group_order):
        traces.update(done)
        failures += failed
    if failures:
        raise min(failures, key=lambda err: (err.step_index, err.member_index))
    return [traces[i] for i in range(len(members))]


def _lockstep(members) -> list:
    """Advance members of one lockstep group as one batch; their TimeTraces,
    whose samples are views of the (n_total, B, 2) array, input ([:, b, 0])
    and output ([:, b, 1]) node, that each step writes one row of.  A failure
    raises NewtonDivergence with the batch-local member_index."""
    chains = [chain for chain, _ in members]
    drives = [drive for _, drive in members]
    n = chains[0].config.n_cells
    m = n + 1  # nodes per member
    nb = len(members)
    size = nb * m
    dt = drives[0].dt
    n_total = drives[0].n_total

    # each member's own circuit constants, one entry per member
    c_j, c_g, z0, esr = np.array([(c.config.c_j, c.config.c_g, c.config.z0, c.esr) for c in chains]).T
    g_cj = 2.0 * c_j / dt
    half_dt_cg = dt / (2.0 * c_g)
    g_sh = 1.0 / (esr + half_dt_cg)
    g_port = 1.0 / z0
    c_phase = math.pi * dt / PHI0  # trapezoidal phase increment per volt
    # an iterate with max |V| at or above this has diverged: below it, every
    # junction angle of the run has a float32 cosine (module docstring)
    v_limit = float(np.finfo(np.float32).max) / (8.0 * c_phase * (n_total + 2))

    # The batch is one ladder of nb*m nodes: node b*m + k is node k of
    # member b, and branch j joins nodes j and j+1.  Branch b*m + n, after
    # each member's output node, is inert: its weights and conductance are
    # zero, so its current and the coupling it makes between neighbouring
    # members are exactly 0, and the port conductances sit in the shunts of
    # node n and of the next member's node 0.  So every per-branch and
    # per-node operation is one contiguous pass over the whole batch.
    def stacked(per_member):
        out = np.zeros((nb, m))
        out[:, :n] = per_member
        return out.reshape(-1)

    a1 = stacked([chain.r_eff * chain.i_c_eff for chain in chains])
    a2 = stacked([chain.i_c_eff for chain in chains])
    # of [sin phi; sin arg; cos phi; cos arg]: the row sums are the junction
    # current and minus its conductance d(current)/dV
    weights = np.stack([a1, a2, -c_phase * a1, -c_phase * a2 / 3.0])
    phi_ext = stacked([chain.phi_ext for chain in chains])
    psi = stacked([chain.phi_star for chain in chains])  # phi + c_phase * v_ser (module docstring)
    g_series = stacked(g_cj[:, None])
    g_shunt = np.repeat(g_sh, m)
    g_shunt[::m] = g_port  # node 0: the source's port, and no c_g
    g_shunt[n::m] += g_port  # node n: the load's port too
    # the shunt's history source: hist_sh <- alpha * hist_sh + beta * v
    alpha = np.repeat((esr - half_dt_cg) / (esr + half_dt_cg), m)
    beta = np.repeat(-2.0 * g_sh * g_sh * half_dt_cg, m)
    beta[::m] = 0.0  # node 0's stays 0

    t_grid = dt * np.arange(1, n_total + 1)
    i_src = np.stack([drive.source_current(t_grid) for drive in drives], axis=1)

    # Node voltages live in row 1 of a (2, nb*m) pair whose row 0 holds the
    # Newton right-hand side, which dgtsv overwrites with the update; two
    # pairs alternate as v and v_prev.
    views = []
    for pair in (np.zeros((2, size)), np.zeros((2, size))):
        v, rhs = pair[1], pair[0]
        views.append((pair.reshape(2, nb, m), v, v[:-1], v[1:], v.reshape(nb, m),
                      v.reshape(nb, m)[:, ::n], rhs, rhs[::m], rhs.reshape(nb, m)))
    # the last branch has no right-hand node: its series voltage stays 0
    v_ser = np.zeros(size)
    v_ser_head = v_ser[:-1]
    hist_cj, hist_sh = np.zeros((2, size))  # trapezoidal history sources
    scratch = np.empty(size)
    # phi and arg are the rows of one pair, so that one sin and one cos
    # call fill trig = [sin phi; sin arg; cos phi; cos arg]
    angles = np.empty((2, size))
    phi, arg = angles
    trig = np.empty((4, size))
    trig_sin, trig_cos, trig_phi, trig_arg = trig[:2], trig[2:], trig[::2], trig[1::2]
    i_junction, neg_g_junction = trig_phi
    abs_pair = np.empty((2, nb, m))
    maxima = np.empty((2, nb))
    # i_branch[0] and coupling[0] pad the left of node 0 of member 0; the
    # rest of coupling is minus each branch's conductance, the Jacobian's
    # off-diagonal
    i_branch = np.zeros(size + 1)
    coupling = np.zeros(size + 1)
    ib, ib_left = i_branch[1:], i_branch[:-1]
    cb, cb_left, off = coupling[1:], coupling[:-1], coupling[1:-1]
    diag = np.empty(size)

    record = np.empty((n_total, nb, 2))  # [step, b, 0] input node, [step, b, 1] output node
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    sin, cos, absolute, max_reduce, float32 = np.sin, np.cos, np.absolute, np.maximum.reduce, np.float32
    dgtsv = _lapack().dgtsv
    all_members = list(range(nb))
    active = np.ones((nb, 1), dtype=bool)
    cur, prev = views
    errs = [math.inf] * nb
    # each member's stopping rule: |d2|/|d1|^2 (1/V) of its last step that
    # took two iterations; inf before its first and after one that took three
    contraction = [math.inf] * nb
    # every scalar operand of the loop is a 0-d float64 array, made once:
    # numpy converts a Python float operand on every call (to the same value)
    c_phase, two_c_phase, two, three = map(np.array, (c_phase, 2.0 * c_phase, 2.0, 3.0))
    neg_two_g_series, neg_g_shunt = -2.0 * g_series, -g_shunt

    for step in range(n_total):
        i_now = i_src[step]
        # linear extrapolation predictor, written over v_prev's buffer
        multiply(cur[1], two, prev[6])
        subtract(prev[6], prev[1], prev[1])
        cur, prev = prev, cur
        pair, v, v_lo, v_hi, v_rows, v_ends, rhs, rhs_in, rhs_rows = cur
        pending = all_members
        predict = step % (NEWTON_REFRESH + 1)  # 0: every member re-measures
        for it in range(MAX_NEWTON_ITER):
            subtract(v_lo, v_hi, v_ser_head)
            multiply(v_ser, c_phase, phi)
            add(phi, psi, phi)
            subtract(phi, phi_ext, arg)
            divide(arg, three, arg)
            sin(angles, trig_sin)
            cos(angles, trig_cos, dtype=float32)  # only the Jacobian reads it
            multiply(weights, trig, trig)
            add(trig_phi, trig_arg, trig_phi)
            multiply(v_ser, g_series, scratch)
            add(i_junction, scratch, i_junction)
            add(i_junction, hist_cj, ib)
            subtract(neg_g_junction, g_series, cb)

            # right-hand side -residual, negated term by term (exact)
            multiply(v, neg_g_shunt, rhs)
            subtract(rhs, hist_sh, rhs)
            subtract(ib_left, ib, scratch)
            add(rhs, scratch, rhs)
            add(rhs_in, i_now, rhs_in)  # the source at each member's node 0

            subtract(g_shunt, cb_left, diag)
            subtract(diag, cb, diag)

            # overwrite_dl=0, overwrite_d=1, overwrite_du=0, overwrite_b=1, by position
            _, _, _, _, info = dgtsv(off, diag, off, rhs, 0, 1, 0, 1)
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
            if it == 0:
                first = errs
            still = []
            for b in pending:
                err = errs[b]
                if not v_max[b] < v_limit:  # also a NaN or infinite update
                    if not math.isfinite(rhs_in[b]):
                        raise NewtonDivergence(
                            f"tridiagonal solve failed at step {step} (info=0)",
                            step_index=step,
                            member_index=b,
                        )
                    raise NewtonDivergence(f"Newton update diverged at step {step}", step_index=step, member_index=b)
                tol = NEWTON_TOL + 1e-10 * v_max[b]
                if it == 0:
                    if predict and contraction[b] * err * err < tol:  # the predicted next update
                        continue
                elif it == 1:
                    contraction[b] = err / (first[b] * first[b])
                else:
                    contraction[b] = math.inf
                if not err < tol:
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
        # the step's history sources and phase for the next step
        subtract(v_lo, v_hi, v_ser_head)
        multiply(v_ser, neg_two_g_series, scratch)
        subtract(scratch, hist_cj, hist_cj)
        multiply(v_ser, two_c_phase, scratch)
        add(psi, scratch, psi)
        multiply(hist_sh, alpha, hist_sh)
        multiply(v, beta, scratch)
        add(hist_sh, scratch, hist_sh)
        record[step] = v_ends
    return [
        TimeTrace(dt=dt, samples=record[:, b, 1], input_samples=record[:, b, 0], z0=chain.config.z0)
        for b, chain in enumerate(chains)
    ]


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
    if not isinstance(delta_bins, (int, np.integer)):
        raise ValueError(f"delta_bins must be an integer, got {delta_bins!r}")
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
    drive.  The pump has phase 0.  Raises ValueError on a ``delta_bins``
    that is not an integer, a non-positive or non-finite window or dt, a
    negative or non-finite settle time, or a signal or idler at or below
    0 Hz."""
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


def read_levels(readings) -> np.ndarray:
    """``extract_spectrum(trace, drive).power_dbm_at(frequency)`` of each
    (RealizedChain, Drive, frequency) reading's transient, in reading
    order; all the runs go through one ``simulate_transients`` call."""
    readings = list(readings)
    traces = simulate_transients([(chain, drive) for chain, drive, _ in readings])
    return np.array([extract_spectrum(t, drive).power_dbm_at(f) for t, (_, drive, f) in zip(traces, readings)])


def flux_sweep_idler(config: ChainConfig, drive_3wm: Drive, drive_4wm: Drive, flux_grid) -> dict:
    """Idler power vs external flux in both frequency configurations.

    The drives are (pump, signal) drives.  For every flux point the same
    disorder realization (fixed by ``config.rng_seed``) is rebuilt at the
    new working point and both drives are simulated; reported are the 3WM
    idler bin (f_p - f_s of the 3WM drive) and the 4WM idler bin
    (2*f_p - f_s of the 4WM drive), in dBm at the output port.  Each
    drive's chains have their ESR set at that drive's own pump; the chains
    are built once per distinct pump frequency.
    """
    flux_grid = np.asarray(flux_grid, dtype=float)
    f_idler3 = idler_frequencies(drive_3wm)["three_wave"]
    f_idler4 = idler_frequencies(drive_4wm)["four_wave"]
    pumps = [drive.tones[0].frequency for drive in (drive_3wm, drive_4wm)]
    chains = {f: [build_chain(config, float(flux), f_ref=f) for flux in flux_grid] for f in set(pumps)}
    levels = read_levels(
        [(c, drive_3wm, f_idler3) for c in chains[pumps[0]]] + [(c, drive_4wm, f_idler4) for c in chains[pumps[1]]]
    )
    return {
        "flux": flux_grid,
        "idler_3wm_dbm": levels[: flux_grid.size],
        "idler_4wm_dbm": levels[flux_grid.size :],
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
    # every run has the drive's grid (window, dt, settle); the first has the pump off
    tone_sets = [(signal,)] + [(replace(pump_on, phase=float(phase)), signal) for phase in phase_grid]
    off, *on = read_levels([(chain, replace(drive, tones=tones), f_signal) for tones in tone_sets])
    return {"phase": phase_grid, "gain_db": np.array(on) - off, "f_signal": f_signal, "pump_off_dbm": float(off)}


def linear_transfer(chain: RealizedChain, frequencies) -> np.ndarray:
    """Small-signal frequency-domain transfer: output-node voltage per
    ampere of source current, from the nodal equations linearized at the
    flux working point.

    Independent of the transient integrator; used as an oracle for the
    linear regime and for insertion-loss cross-checks.  The shunt ESR is
    the chain's own, the fixed resistance the transient uses (set by
    build_chain at its f_ref).  A frequency that is not positive and finite
    raises ValueError.
    """
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if not np.all((freqs > 0.0) & (freqs < math.inf)):
        raise ValueError(f"frequencies must be positive and finite, got {freqs.tolist()}")
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
