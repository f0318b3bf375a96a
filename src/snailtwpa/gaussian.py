"""Gaussian-state analysis of quadrature records.

Conventions: quadratures are dimensionless with vacuum variance 1/4 per
quadrature, and covariance matrices carry an overall factor of 4 so that
the vacuum state maps to the identity matrix,

    sigma_mn = 4 * [ <R_m R_n>_sym - <R_m><R_n> ],

with R = (x_s, p_s) for a single mode or R = (x_s, p_s, x_i, p_i) for a
signal/idler pair.  The background-subtracted state is

    sigma_psi = sigma_on - sigma_off + 1.

Single-mode squeezing levels are 10*log10 of the diagonal entries
(vacuum = 0 dB); two-mode entanglement is quantified by the logarithmic
negativity E_N = max(-ln nu_minus, 0) with nu_minus the smallest
symplectic eigenvalue of the partially transposed covariance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexEigenvalue,
    DegenerateBatch,
    DimensionMismatch,
    NonPositiveVariance,
    NotNormalized,
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
    """Repeated (x, p) quadrature records for one or two modes.

    records     : array of shape (n_rep, 2*len(mode_labels)), columns ordered as
                  (x_signal, p_signal[, x_idler, p_idler])
    mode_labels : ("signal",) or ("signal", "idler")
    pump_state  : "ON" or "OFF"
    normalized  : True once the records are in vacuum units (covariance
                  estimation refuses raw full-scale data)
    """

    records: np.ndarray
    mode_labels: tuple = SINGLE_MODE
    pump_state: str = "OFF"
    normalized: bool = True

    def __post_init__(self):
        self.records = np.atleast_2d(np.asarray(self.records, dtype=float))
        if self.records.shape[0] < 2:
            raise DegenerateBatch(
                f"need at least 2 repetitions, got {self.records.shape[0]}"
            )
        self.mode_labels = tuple(self.mode_labels)
        if self.mode_labels not in (SINGLE_MODE, TWO_MODE):
            raise ValueError(f"mode_labels must be {SINGLE_MODE} or {TWO_MODE}")
        columns = 2 * len(self.mode_labels)
        if self.records.shape[1] != columns:
            raise DimensionMismatch(
                f"records have {self.records.shape[1]} columns, expected {columns}"
            )
        if self.pump_state not in ("ON", "OFF"):
            raise ValueError("pump_state must be 'ON' or 'OFF'")
        if not np.all(np.isfinite(self.records)):
            raise ValueError("records contain non-finite values")

    @property
    def n_rep(self) -> int:
        return self.records.shape[0]


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
    """Sample covariance of a normalized batch, scaled by the factor 4.

    Classical samples commute, so the symmetrized operator product reduces
    to the ordinary (unbiased, ddof=1) sample covariance.  The per-entry
    standard error uses the Gaussian-moments formula
    Var(sigma_ij) = (sigma_ii*sigma_jj + sigma_ij^2) / (n_rep - 1).
    """
    if not batch.normalized:
        raise NotNormalized("covariance estimation requires normalized quadratures")
    if batch.n_rep < 2:
        raise DegenerateBatch("need at least 2 repetitions")
    sigma = 4.0 * np.cov(batch.records, rowvar=False, ddof=1)
    sigma = np.atleast_2d(sigma)
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
    ``systematic``.
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
        lo_scale = 10.0 ** (-abs(gain_uncertainty_db) / 10.0)
        hi_scale = 10.0 ** (+abs(gain_uncertainty_db) / 10.0)
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

    ``target`` is a CovMatrix or array in the factor-4 convention; raw
    quadrature records are drawn from N(0, target/4) so that
    :func:`estimate_covariance` recovers ``target``.  Cholesky
    factorization with a symmetric-eigendecomposition fallback for
    semidefinite targets; deterministic for a given seed.
    """
    matrix = target.entries if isinstance(target, CovMatrix) else np.asarray(target, float)
    matrix = 0.5 * (matrix + matrix.T)
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim) or dim not in (2, 4):
        raise DimensionMismatch(f"target must be 2x2 or 4x4, got {matrix.shape}")
    w = np.linalg.eigvalsh(matrix)
    w_floor = -1e-10 * max(1.0, float(np.max(np.abs(w))))
    if w.min() < w_floor:
        raise NotPSD(f"target covariance has eigenvalue {w.min():.6g} < 0")
    raw_cov = matrix / 4.0
    try:
        factor = np.linalg.cholesky(raw_cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(raw_cov)
        factor = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(size=(n_rep, dim))
    records = z @ factor.T
    labels = SINGLE_MODE if dim == 2 else TWO_MODE
    return QuadratureBatch(
        records=records, mode_labels=labels, pump_state=pump_state, normalized=True
    )


# One data row of the quadrature CSV.  The text fields are one character
# wider than the longest valid value, so a longer value cannot be cut down
# to a valid one.
_CSV_ROW = np.dtype([("rep", "i8"), ("mode", "U7"), ("x", "f8"), ("p", "f8"), ("pump", "U4")])


def _csv_rows(batch: QuadratureBatch) -> list:
    """The data lines of one batch, one per (repetition, mode) in that order.

    A function of its own so that the ``tolist()`` copy of one batch is
    freed before the next batch's copy is made.
    """
    state = batch.pump_state
    records = batch.records.tolist()
    if batch.mode_labels == SINGLE_MODE:
        return [f"{i},signal,{x!r},{p!r},{state}" for i, (x, p) in enumerate(records)]
    return [
        f"{i},signal,{xs!r},{ps!r},{state}\n{i},idler,{xi!r},{pi!r},{state}"
        for i, (xs, ps, xi, pi) in enumerate(records)
    ]


def write_quadrature_csv(path, batches) -> None:
    """Write quadrature batches to the interchange CSV format.

    One row per (repetition, mode): ``rep_index,mode,x,p,pump_state``, with
    x and p written as ``repr`` (the shortest decimal that reads back to the
    same float).  Header comments record the format version, normalization
    state and mode labels.  All batches must share the same normalization
    state.
    """
    if isinstance(batches, QuadratureBatch):
        batches = [batches]
    normalized = {b.normalized for b in batches}
    if len(normalized) != 1:
        raise ValueError("cannot mix normalized and raw batches in one file")
    labels = max((b.mode_labels for b in batches), key=len)
    lines = [
        "# snailtwpa quadrature records v1",
        f"# normalized={'true' if normalized.pop() else 'false'}",
        f"# modes={','.join(labels)}",
        "rep_index,mode,x,p,pump_state",
    ]
    for batch in batches:
        lines += _csv_rows(batch)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _first_bad_row(lines: list) -> int:
    """Index of the first line ``np.loadtxt`` rejects, found by halving."""
    lo, hi = 0, len(lines)  # the first bad line is in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.loadtxt(lines[lo:mid], dtype=_CSV_ROW, delimiter=",", ndmin=1)
        except ValueError:
            hi = mid
        else:
            lo = mid
    return lo


def read_quadrature_csv(path) -> dict:
    """Read the interchange CSV; returns {pump_state: QuadratureBatch}.

    Lines are stripped of surrounding whitespace; blank lines, ``#``
    comments and ``rep_index`` header lines are skipped, and the last
    ``normalized=`` comment sets the normalization state (default true).
    A pump state's modes are the labels its rows use, and a repetition
    without a row for a mode stays zero.  A row that does not parse, or
    that has an unknown mode or pump state, a negative repetition or a
    non-finite value, raises ValueError naming its line number.
    """
    with open(path) as fh:
        lines = [line.strip() for line in fh.read().split("\n")]
    notes = [line for line in lines if line.startswith("#") and "normalized=" in line]
    normalized = notes[-1].split("normalized=")[1].strip() == "true" if notes else True
    at = [n for n, line in enumerate(lines) if line and not line.startswith(("#", "rep_index"))]
    if not at:
        return {}
    body = [lines[n] for n in at]
    try:
        rows = np.loadtxt(body, dtype=_CSV_ROW, delimiter=",", ndmin=1)
    except ValueError as err:
        raise ValueError(f"line {at[_first_bad_row(body)] + 1}: {err}") from None
    mode = {label: rows["mode"] == label for label in TWO_MODE}
    pump = {state: rows["pump"] == state for state in ("OFF", "ON")}  # the keys come out sorted
    valid = (
        (mode["signal"] | mode["idler"])
        & (pump["OFF"] | pump["ON"])
        & (rows["rep"] >= 0)
        & np.isfinite(rows["x"])
        & np.isfinite(rows["p"])
    )
    if not valid.all():
        n = at[int(np.argmin(valid))]
        raise ValueError(f"line {n + 1}: invalid row {lines[n]!r}")
    out = {}
    for state, in_state in pump.items():
        if not in_state.any():
            continue
        labels = tuple(label for label in TWO_MODE if np.any(in_state & mode[label]))
        records = np.zeros((int(rows["rep"][in_state].max()) + 1, 2 * len(labels)))
        for m, label in enumerate(labels):
            part = rows[in_state & mode[label]]
            records[part["rep"], 2 * m : 2 * m + 2] = np.column_stack((part["x"], part["p"]))
        out[state] = QuadratureBatch(
            records=records, mode_labels=labels, pump_state=state, normalized=normalized
        )
    return out
