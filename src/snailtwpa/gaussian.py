"""Gaussian-state analysis of quadrature records.

Conventions: quadrature records are in vacuum units, dimensionless with
vacuum variance 1/4 per quadrature, and covariance matrices carry an
overall factor of 4 so that the vacuum state maps to the identity matrix,

    sigma_mn = 4 * [ <R_m R_n>_sym - <R_m><R_n> ],

with R = (x_s, p_s) for a single mode or R = (x_s, p_s, x_i, p_i) for a
signal/idler pair.  The background-subtracted state is

    sigma_psi = sigma_on - sigma_off + 1.

Single-mode squeezing levels are 10*log10 of the diagonal entries
(vacuum = 0 dB); two-mode entanglement is quantified by the logarithmic
negativity E_N = max(-ln nu_minus, 0) with nu_minus the smallest
symplectic eigenvalue of the partially transposed covariance matrix.

The synthetic measurement model (:func:`pump_states`): the pump-OFF
records hold n added noise photons, sigma_off = (1 + 2n) * 1, and the
pump-ON records hold the state psi on that background, at a gain that
drifted by the fraction d: sigma_on = psi - 1 + sigma_off * (1 + d)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import (
    ComplexEigenvalue,
    DegenerateBatch,
    DimensionMismatch,
    NonPositiveVariance,
    NotPSD,
)

SINGLE_MODE = ("signal",)
TWO_MODE = ("signal", "idler")

_SYMPLECTIC_2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

_SYM_TOL = 1e-12  # CovMatrix's asymmetry bound, relative to max(1, max |entry|)


def symplectic_form(n: int) -> np.ndarray:
    """Standard symplectic form Omega of n modes in (x1, p1, x2, p2, ...) ordering."""
    return np.kron(np.eye(n), _SYMPLECTIC_2)


@dataclass
class QuadratureBatch:
    """Repeated (x, p) quadrature records, in vacuum units (module docstring),
    of the modes ``mode_labels``: SINGLE_MODE for 2 columns, TWO_MODE for 4.

    records    : array of shape (n_rep, 2) or (n_rep, 4), columns ordered as
                 (x_signal, p_signal[, x_idler, p_idler])
    pump_state : "ON" or "OFF"
    """

    records: np.ndarray
    pump_state: str = "OFF"

    def __post_init__(self):
        self.records = np.atleast_2d(np.asarray(self.records, dtype=float))
        if self.records.shape[0] < 2:
            raise DegenerateBatch(f"need at least 2 repetitions, got {self.records.shape[0]}")
        if self.records.ndim != 2 or self.records.shape[1] not in (2, 4):
            raise DimensionMismatch(f"records have shape {self.records.shape}, not (n_rep, 2) or (n_rep, 4)")
        if self.pump_state not in ("ON", "OFF"):
            raise ValueError("pump_state must be 'ON' or 'OFF'")
        if not np.all(np.isfinite(self.records)):
            raise ValueError("records contain non-finite values")

    @property
    def n_rep(self) -> int:
        return self.records.shape[0]

    @property
    def mode_labels(self) -> tuple:
        return SINGLE_MODE if self.records.shape[1] == 2 else TWO_MODE


@dataclass
class CovMatrix:
    """Covariance matrix in the vacuum-equals-identity convention.

    entries     : symmetric (2x2 or 4x4) real matrix
    uncertainty : per-entry statistical standard error (or None)
    systematic  : optional (lower, upper) entry bounds from re-evaluating
                  the pipeline at the +/- 1 dB system-gain uncertainty
    """

    entries: np.ndarray
    uncertainty: np.ndarray | None = None
    systematic: tuple | None = None

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
            raise DimensionMismatch(f"covariance must be 2x2 or 4x4, got {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m))))
        asym = float(np.max(np.abs(m - m.T)))
        if asym > _SYM_TOL * scale:
            raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
        self.entries = 0.5 * (m + m.T)
        if self.uncertainty is not None:
            self.uncertainty = np.asarray(self.uncertainty, dtype=float)
            if self.uncertainty.shape != m.shape:
                raise DimensionMismatch("uncertainty shape must match entries")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_physical(self, tol: float = 1e-9) -> bool:
        """Check sigma + i*Omega >= 0 (eigenvalues >= -tol)."""
        omega = symplectic_form(self.dim // 2)
        w = np.linalg.eigvalsh(self.entries + 1j * omega)
        return bool(w.min() >= -tol)

    def to_dict(self) -> dict:
        """The matrix as plain data: ``dim``, ``entries``, ``uncertainty``,
        ``systematic`` (None or [lower, upper]) and ``physical``."""
        return {
            "dim": self.dim,
            "entries": self.entries.tolist(),
            "uncertainty": None if self.uncertainty is None else self.uncertainty.tolist(),
            "systematic": None
            if self.systematic is None
            else [self.systematic[0].tolist(), self.systematic[1].tolist()],
            "physical": self.is_physical(),
        }


def estimate_covariance(batch: QuadratureBatch) -> CovMatrix:
    """Sample covariance of a batch, scaled by the factor 4.

    Classical samples commute, so the symmetrized operator product reduces
    to the ordinary (unbiased, ddof=1) sample covariance.  The per-entry
    standard error uses the Gaussian-moments formula
    Var(sigma_ij) = (sigma_ii*sigma_jj + sigma_ij^2) / (n_rep - 1).
    """
    sigma = 4.0 * np.cov(batch.records, rowvar=False, ddof=1)
    diag = np.diag(sigma)
    var_entries = (np.outer(diag, diag) + sigma**2) / (batch.n_rep - 1)
    return CovMatrix(entries=sigma, uncertainty=np.sqrt(var_entries))


def subtract_background(
    sigma_on: CovMatrix,
    sigma_off: CovMatrix,
    gain_uncertainty_db: float | None = None,
) -> CovMatrix:
    """Infer the device-output state: sigma_on - sigma_off + identity.

    Statistical uncertainties add in quadrature.  If ``gain_uncertainty_db``
    is given (the dominant systematic: the system-gain calibration is known
    only to about +/- 1 dB), the subtraction is re-evaluated with the
    measured difference rescaled by 10**(-/+ gain_uncertainty_db/10),
    since the covariance of normalized data scales inversely with the
    assumed linear gain; the resulting entry-wise bounds are stored in
    ``systematic``.  Raises ValueError for a ``gain_uncertainty_db`` for
    which 10**(|gain_uncertainty_db|/10) is not finite (nan, infinite or
    beyond about 3082 dB).
    """
    if sigma_on.dim != sigma_off.dim:
        raise DimensionMismatch(
            f"dimension mismatch: {sigma_on.dim} vs {sigma_off.dim}"
        )
    eye = np.eye(sigma_on.dim)
    diff = sigma_on.entries - sigma_off.entries
    entries = diff + eye
    unc = None
    if sigma_on.uncertainty is not None and sigma_off.uncertainty is not None:
        unc = np.sqrt(sigma_on.uncertainty**2 + sigma_off.uncertainty**2)
    systematic = None
    if gain_uncertainty_db is not None:
        try:
            hi_scale = 10.0 ** (+abs(gain_uncertainty_db) / 10.0)
        except OverflowError:
            hi_scale = math.inf
        if not hi_scale < math.inf:  # also a nan
            raise ValueError(f"gain_uncertainty_db must be finite, |x| below about 3082 dB, got {gain_uncertainty_db}")
        lo_scale = 10.0 ** (-abs(gain_uncertainty_db) / 10.0)
        a = lo_scale * diff + eye
        b = hi_scale * diff + eye
        systematic = (np.minimum(a, b), np.maximum(a, b))
    return CovMatrix(entries=entries, uncertainty=unc, systematic=systematic)


def squeezing_db(sigma: CovMatrix):
    """Single-mode squeezing levels (S_x, S_p) in dB.

    S_x = 10*log10(sigma_11), S_p = 10*log10(sigma_22); the vacuum
    denominator is 1 in this convention, and negative values mean
    squeezing below the vacuum level.
    """
    if sigma.dim != 2:
        raise DimensionMismatch("single-mode squeezing requires a 2x2 matrix")
    sx_var = sigma.entries[0, 0]
    sp_var = sigma.entries[1, 1]
    if sx_var <= 0.0 or sp_var <= 0.0:
        raise NonPositiveVariance(
            f"non-positive variance after subtraction: sigma_11={sx_var:.6g}, "
            f"sigma_22={sp_var:.6g}"
        )
    return 10.0 * np.log10(sx_var), 10.0 * np.log10(sp_var)


def logarithmic_negativity(sigma: CovMatrix):
    """(E_N, nu_minus) of a two-mode covariance matrix via the closed form.

    With sigma = [[A, C], [C.T, B]]:

        Delta    = det A + det B - 2 det C
        nu_minus = sqrt((Delta - sqrt(Delta^2 - 4 det sigma)) / 2)
        E_N      = max(-ln nu_minus, 0)

    Raises ComplexEigenvalue when Delta^2 < 4 det sigma (or the outer
    radicand is negative) beyond numerical tolerance, reporting the
    magnitude of the violation instead of clamping it away.
    """
    if sigma.dim != 4:
        raise DimensionMismatch("logarithmic negativity requires a 4x4 matrix")
    e = sigma.entries
    a, b, c = e[:2, :2], e[2:, 2:], e[:2, 2:]
    delta = np.linalg.det(a) + np.linalg.det(b) - 2.0 * np.linalg.det(c)
    det_sigma = np.linalg.det(e)
    disc = delta**2 - 4.0 * det_sigma
    scale = max(delta**2, abs(4.0 * det_sigma), 1.0e-300)
    if disc < -1e-10 * scale:
        raise ComplexEigenvalue(
            f"partial-transpose symplectic eigenvalue is complex: "
            f"Delta^2 - 4 det sigma = {disc:.6g} (relative {disc / scale:.3g})",
            violation=disc / scale,
        )
    disc = max(disc, 0.0)
    radicand = 0.5 * (delta - np.sqrt(disc))
    if radicand < -1e-10 * max(abs(delta), 1.0):
        raise ComplexEigenvalue(
            f"nu_minus^2 = {radicand:.6g} < 0: unphysical covariance matrix",
            violation=radicand,
        )
    nu_minus = float(np.sqrt(max(radicand, 0.0)))
    if nu_minus <= 0.0:
        raise ComplexEigenvalue(
            "nu_minus underflowed to 0; covariance matrix is singular/unphysical",
            violation=radicand,
        )
    e_n = max(-np.log(nu_minus), 0.0) + 0.0  # +0.0 normalizes -0.0
    return float(e_n), nu_minus


def sample_gaussian(
    target,
    n_rep: int = 10_000,
    seed=0,
    pump_state: str = "OFF",
) -> QuadratureBatch:
    """Draw a synthetic quadrature batch with covariance ``target``.

    ``target`` is an array in the factor-4 convention; raw
    quadrature records are drawn from N(0, target/4) so that
    :func:`estimate_covariance` recovers ``target``.  Cholesky
    factorization with a symmetric-eigendecomposition fallback for
    semidefinite targets; deterministic for a given seed.
    """
    matrix = np.asarray(target, float)
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim) or dim not in (2, 4):
        raise DimensionMismatch(f"target must be 2x2 or 4x4, got {matrix.shape}")
    matrix = _symmetric_psd(matrix, "target covariance")
    raw_cov = matrix / 4.0
    try:
        factor = np.linalg.cholesky(raw_cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(raw_cov)
        factor = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(size=(n_rep, dim))
    records = z @ factor.T
    return QuadratureBatch(records=records, pump_state=pump_state)


def _symmetric_psd(matrix: np.ndarray, name: str) -> np.ndarray:
    """The symmetric part of ``matrix``, if it is a finite covariance; else NotPSD naming ``name``."""
    matrix = 0.5 * (matrix + matrix.T)
    if not np.isfinite(matrix).all():
        raise NotPSD(f"{name} has a non-finite entry")
    w = np.linalg.eigvalsh(matrix)
    w_floor = -1e-10 * max(1.0, float(np.max(np.abs(w))))
    if w.min() < w_floor:
        raise NotPSD(f"{name} has eigenvalue {w.min():.6g} < 0")
    return matrix


def squeezed_vacuum(variance: float, angle: float) -> np.ndarray:
    """Single-mode squeezed vacuum: ``variance`` on the quadrature at
    ``angle`` (rad) from x, and 1/``variance`` on the one orthogonal to it."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, s], [-s, c]])
    return rot @ np.diag([variance, 1.0 / variance]) @ rot.T


def two_mode_squeezed(r: float, thermal_photons: float) -> np.ndarray:
    """Two-mode squeezed vacuum of squeezing parameter ``r``, with ``thermal_photons``
    thermal photons added to each mode (ValueError if their variance is not finite)."""
    variance = math.cosh(2 * r) + 2.0 * thermal_photons
    if not math.isfinite(variance):
        raise ValueError(f"{thermal_photons} thermal photons give each mode a non-finite variance")
    a_block = variance * np.eye(2)
    c_block = math.sinh(2 * r) * np.diag([1.0, -1.0])
    return np.block([[a_block, c_block], [c_block.T, a_block]])


def pump_states(targets, added_noise_photons: float, gain_drift: float) -> list:
    """The (ON, OFF) pair of the measurement model (module docstring) of
    each target state; NotPSD, naming the point, for a pair that is not
    two covariances, raised before anything is sampled."""
    level = 1.0 + 2.0 * added_noise_photons
    try:
        gain = (1.0 + gain_drift) ** 2
    except OverflowError:  # an infinite gain, which the ON state's check names
        gain = math.inf
    pairs = []
    for idx, target in enumerate(targets):
        off = np.diag([level] * len(target))  # not level * eye: an infinite level times its zeros is nan
        on = target - np.eye(len(target)) + np.diag([level * gain] * len(target))
        for state, matrix in (("ON", on), ("OFF", off)):
            _symmetric_psd(matrix, f"point {idx}'s pump-{state} state")
        pairs.append((on, off))
    return pairs


def measure_states(pairs, n_rep: int, seed: int, gain_uncertainty_db: float | None) -> list:
    """The background-subtracted covariance of each (ON, OFF) pair, from
    ``n_rep`` synthetic records of each state.  Point ``idx`` draws ON, then
    OFF, from spawn key ``(idx,)`` of ``seed``, so the points run at once
    (:mod:`snailtwpa.parallel`) with the same bits for any number of CPUs."""

    def point(idx):
        on_true, off_true = pairs[idx]
        on_seed, off_seed = np.random.SeedSequence(entropy=seed, spawn_key=(idx,)).spawn(2)
        on = estimate_covariance(sample_gaussian(on_true, n_rep=n_rep, seed=on_seed, pump_state="ON"))
        off = estimate_covariance(sample_gaussian(off_true, n_rep=n_rep, seed=off_seed, pump_state="OFF"))
        return subtract_background(on, off, gain_uncertainty_db=gain_uncertainty_db)

    parts = parallel.map_parts(lambda part: [point(i) for i in part], range(len(pairs)))
    return [psi for part in parts for psi in part]


# One data row of the quadrature CSV.  The text fields are one character
# wider than the longest valid value, so a longer value cannot be cut down
# to a valid one.
_CSV_ROW = np.dtype([("rep", "i8"), ("mode", "U7"), ("x", "f8"), ("p", "f8"), ("pump", "U4")])
# A parsed data row as the reader's parts hand it back: the mode and the pump
# state as their index in TWO_MODE and _PUMP_STATES, -1 for an unknown one.
_ROW = np.dtype([("rep", "i8"), ("mode", "i1"), ("pump", "i1"), ("x", "f8"), ("p", "f8")])
_PUMP_STATES = ("OFF", "ON")  # sorted, so the reader's keys come out sorted


def _csv_text(batches: list, reps: range) -> str:
    """The data lines of repetitions ``reps`` of the batches counted end to
    end, one per (repetition, mode) in that order, each ending in a
    newline."""
    texts = []
    for batch in batches:
        mine = range(batch.n_rep)[reps.start : reps.stop]
        reps = range(max(reps.start - batch.n_rep, 0), max(reps.stop - batch.n_rep, 0))  # from the next batch on
        state = batch.pump_state
        records = batch.records[mine.start : mine.stop].tolist()
        if batch.mode_labels == SINGLE_MODE:
            texts += [f"{i},signal,{x!r},{p!r},{state}\n" for i, (x, p) in zip(mine, records)]
        else:
            texts += [
                f"{i},signal,{xs!r},{ps!r},{state}\n{i},idler,{xi!r},{pi!r},{state}\n"
                for i, (xs, ps, xi, pi) in zip(mine, records)
            ]
    return "".join(texts)


def write_quadrature_csv(path, batches) -> None:
    """Write a list of quadrature batches to the interchange CSV format.

    One row per (repetition, mode): ``rep_index,mode,x,p,pump_state``, with
    x and p written as ``repr`` (the shortest decimal that reads back to the
    same float).  Header comments record the format version, that the
    records are in vacuum units (``normalized=true``) and the mode labels.
    No two batches may share a pump state (the reader takes all the rows of
    a pump state as one batch).

    The rows are formatted in parts: :mod:`snailtwpa.parallel` cuts the
    repetitions of all the batches, counted end to end, into contiguous
    ranges that run at once in this process and in forked children.  The
    file is opened only once every part's text is back, and is written as
    the header followed by the parts in order, so its bytes do not depend
    on the number of parts; a part that fails raises before the file is
    created or truncated.
    """
    if not batches:
        raise ValueError("no batches to write: a quadrature CSV holds at least one batch")
    states = [b.pump_state for b in batches]
    for state in states:
        if states.count(state) > 1:
            raise ValueError(f"more than one batch has pump state {state}; a file holds one batch per pump state")
    labels = max((b.mode_labels for b in batches), key=len)
    header = (
        "# snailtwpa quadrature records v1\n"
        "# normalized=true\n"
        f"# modes={','.join(labels)}\n"
        "rep_index,mode,x,p,pump_state\n"
    )
    texts = parallel.map_parts(lambda reps: _csv_text(batches, reps), range(sum(b.n_rep for b in batches)))
    with open(path, "w") as fh:
        fh.write(header)
        fh.writelines(texts)


def _first_bad_row(lines: list) -> tuple:
    """Index of the first line ``np.loadtxt`` rejects, found by halving, and
    why: its field count, or its first field that does not parse; ``lines``
    must hold such a line."""
    lo, hi = 0, len(lines)  # the first bad line is in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.loadtxt(lines[lo:mid], dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            hi = mid
        else:
            lo = mid
    fields = lines[lo].split(",")
    if len(fields) != len(_CSV_ROW.names):
        return lo, f"field count {len(fields)}, not {len(_CSV_ROW.names)} (rep_index,mode,x,p,pump_state)"
    for k, name in enumerate(_CSV_ROW.names):
        try:
            np.loadtxt(lines[lo : lo + 1], dtype=_CSV_ROW[name], delimiter=",", comments=None, usecols=k)
        except ValueError:
            return lo, f"field {k + 1} ({name}) cannot be read as {_CSV_ROW[name]}: {fields[k].strip()!r}"
    return lo, "a row np.loadtxt does not read"


def _check_repetitions(reps, where, n_rep: int, at: list, state: str, label: str) -> None:
    """Raise ValueError unless rows ``where`` (of repetitions ``reps``, read
    from lines ``at``) hold each repetition 0..n_rep-1 exactly once.  The
    counts cover at most len(where) + 1 repetitions, which len(where) rows
    cannot fill, so a huge repetition index allocates nothing."""
    mine = reps[where]
    size = min(n_rep, len(mine) + 1)
    counts = np.bincount(mine[mine < size], minlength=size)
    if np.any(counts > 1):
        rep = int(np.argmax(counts > 1))
        n = at[where[np.flatnonzero(mine == rep)[1]]]  # the repeat's line
        raise ValueError(f"line {n + 1}: repeats repetition {rep} of the {label} mode of pump state {state}")
    if np.any(counts == 0):
        rep = int(np.argmin(counts))
        raise ValueError(f"pump state {state}: the {label} mode has no row for repetition {rep} of 0..{n_rep - 1}")


def _parse_lines(text: str, span: range) -> tuple:
    """Parse the lines of ``text`` that start inside ``span``, a range of
    positions in it.

    Returns (rows, at, normalized): the data rows as ``_ROW``, an unknown
    mode or pump state read as -1, their 0-based line numbers in ``text``,
    and the state the lines' last ``normalized=`` comment sets (None
    without one).  The first row ``np.loadtxt`` rejects raises ValueError
    naming its line; no value is checked here.
    """
    # the first line start at or after a position: 0, or just after a newline
    start, stop = (i and (text.find("\n", i - 1) + 1 or len(text)) for i in (span.start, span.stop))
    first = text.count("\n", 0, start)
    lines = list(map(str.strip, text[start:stop].split("\n")))
    notes = [line for line in lines if line.startswith("#") and "normalized=" in line]
    normalized = notes[-1].split("normalized=")[1].strip() == "true" if notes else None
    data = [n for n, line in enumerate(lines) if line and not line.startswith(("#", "rep_index"))]
    body = [lines[n] for n in data]
    at = first + np.array(data, dtype=np.int64)
    rows = np.zeros(len(body), dtype=_ROW)
    if not body:
        return rows, at, normalized
    try:
        text_rows = np.loadtxt(body, dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        n, why = _first_bad_row(body)
        raise ValueError(f"line {at[n] + 1}: {why}") from None
    rows["mode"] = rows["pump"] = -1
    for code, label in enumerate(TWO_MODE):
        rows["mode"][text_rows["mode"] == label] = code
    for code, state in enumerate(_PUMP_STATES):
        rows["pump"][text_rows["pump"] == state] = code
    for field in ("rep", "x", "p"):
        rows[field] = text_rows[field]
    return rows, at, normalized


def read_quadrature_csv(path) -> dict:
    """Read the interchange CSV; returns {pump_state: QuadratureBatch}.

    Lines are stripped of surrounding whitespace; blank lines, comment
    lines (those that start with ``#``; a ``#`` elsewhere in a row is data)
    and ``rep_index`` header lines are skipped; raw records (the last
    ``normalized=`` comment says false) raise ValueError.  A pump state
    holds both modes if it has an idler row, else the signal mode alone,
    and each must have exactly one row for every repetition 0..n-1,
    n - 1 being the largest repetition index of the state.  A row that
    does not parse, or that has an unknown mode or pump state, a negative
    repetition or a non-finite value, raises ValueError naming its line
    number (the first row that does not parse if there is one, else the
    first invalid row); so does a row that repeats a (pump state, mode,
    repetition), and a missing one raises ValueError naming the pump
    state, the mode and the repetition.

    The file is read once, and :mod:`snailtwpa.parallel` cuts the positions
    of its text into ranges that run at once in this process and in forked
    children.  Each part parses the lines that start in its range, handing
    back their rows, their line numbers and their last ``normalized=``
    comment; a row that does not parse raises in its part, and the earliest
    part's error is the one raised.  Every check on the values then runs
    once, here, so the batches and the error raised do not depend on the
    number of parts.
    """
    with open(path) as fh:
        text = fh.read()
    parts = parallel.map_parts(lambda span: _parse_lines(text, span), range(len(text)))
    rows = np.concatenate([part[0] for part in parts])
    at = np.concatenate([part[1] for part in parts])
    valid = (rows["mode"] >= 0) & (rows["pump"] >= 0) & (rows["rep"] >= 0)
    valid &= np.isfinite(rows["x"]) & np.isfinite(rows["p"])
    if not valid.all():
        n = int(at[np.argmin(valid)])
        line = text.split("\n", n + 1)[n].strip()
        raise ValueError(f"line {n + 1}: invalid row {line!r}")
    notes = [normalized for _, _, normalized in parts if normalized is not None]
    if notes and not notes[-1]:
        raise ValueError("the records are raw (normalized=false); they must be in vacuum units")
    mode = {label: rows["mode"] == code for code, label in enumerate(TWO_MODE)}
    out = {}
    for code, state in enumerate(_PUMP_STATES):
        in_state = rows["pump"] == code
        if not in_state.any():
            continue
        where = {label: np.flatnonzero(in_state & mode[label]) for label in TWO_MODE}
        labels = TWO_MODE if where["idler"].size else SINGLE_MODE
        n_rep = int(rows["rep"][in_state].max()) + 1
        for label in labels:
            _check_repetitions(rows["rep"], where[label], n_rep, at, state, label)
        records = np.zeros((n_rep, 2 * len(labels)))
        for m, label in enumerate(labels):
            part = rows[where[label]]
            records[part["rep"], 2 * m : 2 * m + 2] = np.column_stack((part["x"], part["p"]))
        out[state] = QuadratureBatch(records=records, pump_state=state)
    return out
