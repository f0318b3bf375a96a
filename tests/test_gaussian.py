import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from snailtwpa import gaussian, parallel
from snailtwpa.errors import (
    ComplexEigenvalue,
    DegenerateBatch,
    DimensionMismatch,
    NonPositiveVariance,
    NotPSD,
    SnailTwpaError,
)
from snailtwpa.gaussian import (
    CovMatrix,
    QuadratureBatch,
    estimate_covariance,
    logarithmic_negativity,
    read_quadrature_csv,
    sample_gaussian,
    squeezing_db,
    subtract_background,
    symplectic_form,
    write_quadrature_csv,
)


def tmsv(r, n_thermal=0.0):
    """Two-mode squeezed vacuum (+ symmetric thermal noise), factor-4 units."""
    a = (math.cosh(2 * r) + 2 * n_thermal) * np.eye(2)
    c = math.sinh(2 * r) * np.diag([1.0, -1.0])
    top = np.hstack([a, c])
    bot = np.hstack([c.T, a])
    return np.vstack([top, bot])


def nu_minus_eigopt(sigma):
    """Brute-force oracle: smallest symplectic eigenvalue of the partial
    transpose via the eigendecomposition of i*Omega*sigma_tilde."""
    p = np.diag([1.0, 1.0, 1.0, -1.0])  # flip the idler momentum
    sigma_tilde = p @ sigma @ p
    omega = symplectic_form(2)
    eig = np.linalg.eigvals(1j * omega @ sigma_tilde)
    return float(np.sort(np.abs(eig))[0])


def rotation(theta):
    return np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    )


# --- estimate_covariance -------------------------------------------------


def test_vacuum_convention_lock():
    # per-quadrature variance 1/4 must map to the identity matrix
    batch = sample_gaussian(np.eye(2), n_rep=1_000_000, seed=11)
    assert np.var(batch.records[:, 0], ddof=1) == pytest.approx(0.25, rel=5e-3)
    sigma = estimate_covariance(batch)
    np.testing.assert_allclose(sigma.entries, np.eye(2), atol=0.012)
    # off-diagonals within 3 standard errors of zero
    assert abs(sigma.entries[0, 1]) < 3.0 * sigma.uncertainty[0, 1]


def test_constant_batch_gives_zero_matrix():
    records = np.ones((100, 2)) * 0.3
    sigma = estimate_covariance(QuadratureBatch(records=records))
    # zero up to the rounding of the sample-mean subtraction
    np.testing.assert_allclose(sigma.entries, np.zeros((2, 2)), atol=1e-25)


def test_round_trip_known_4x4():
    target = tmsv(0.4, n_thermal=0.3)
    batch = sample_gaussian(target, n_rep=1_000_000, seed=3)
    sigma = estimate_covariance(batch)
    assert np.all(np.abs(sigma.entries - target) < 4.0 * sigma.uncertainty + 1e-12)


def test_rejects_degenerate_and_misshapen_batches():
    with pytest.raises(DegenerateBatch):
        QuadratureBatch(records=np.zeros((1, 2)))
    with pytest.raises(DimensionMismatch, match=r"shape \(10, 3\)"):
        QuadratureBatch(records=np.zeros((10, 3)))


# --- subtract_background -------------------------------------------------


def test_subtract_equal_inputs_gives_identity():
    sigma = CovMatrix(entries=np.array([[3.0, 0.5], [0.5, 7.0]]))
    out = subtract_background(sigma, sigma)
    np.testing.assert_array_equal(out.entries, np.eye(2))


def test_subtract_linearity():
    off = CovMatrix(entries=4.0 * np.eye(4))
    bump = np.diag([-0.5, 1.0, 0.0, 0.0])
    on = CovMatrix(entries=off.entries + bump)
    out = subtract_background(on, off)
    np.testing.assert_allclose(out.entries, np.eye(4) + bump, atol=1e-14)


def test_subtract_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        subtract_background(
            CovMatrix(entries=np.eye(2)), CovMatrix(entries=np.eye(4))
        )


def test_subtract_systematic_bounds():
    off = CovMatrix(entries=5.0 * np.eye(2))
    on = CovMatrix(entries=np.diag([4.5, 7.0]))
    out = subtract_background(on, off, gain_uncertainty_db=1.0)
    lo, hi = out.systematic
    # diff = diag(-0.5, 2.0); scales 10^(+-0.1) bracket the reported entries
    assert lo[0, 0] == pytest.approx(1.0 - 0.5 * 10**0.1)
    assert hi[0, 0] == pytest.approx(1.0 - 0.5 * 10**-0.1)
    assert np.all(lo <= out.entries + 1e-12) and np.all(out.entries <= hi + 1e-12)


@pytest.mark.parametrize("db", [math.nan, math.inf, -math.inf, 4000.0, -4000.0])
def test_subtract_rejects_a_gain_uncertainty_it_cannot_scale_by(db):
    # unchecked, nan and +-inf give nan bounds and +-4000 dB overflows
    off = CovMatrix(entries=5.0 * np.eye(2))
    on = CovMatrix(entries=np.diag([4.5, 7.0]))
    with pytest.raises(ValueError, match="^gain_uncertainty_db must be finite"):
        subtract_background(on, off, gain_uncertainty_db=db)


def test_full_chain_monte_carlo():
    # known squeezed state + known added noise, ON and OFF estimated
    # separately, recovered within statistical error
    psi = np.diag([0.5, 2.0])
    off_true = 4.0 * np.eye(2)  # vacuum + 1.5 added photons
    on_true = psi - np.eye(2) + off_true
    on = estimate_covariance(sample_gaussian(on_true, n_rep=400_000, seed=21, pump_state="ON"))
    off = estimate_covariance(sample_gaussian(off_true, n_rep=400_000, seed=22))
    out = subtract_background(on, off)
    assert np.all(np.abs(out.entries - psi) < 4.0 * out.uncertainty + 1e-12)


# --- squeezing_db ---------------------------------------------------------


def test_squeezing_identity_is_zero_db():
    sx, sp = squeezing_db(CovMatrix(entries=np.eye(2)))
    assert sx == 0.0 and sp == 0.0


def test_squeezing_half_and_double():
    sx, sp = squeezing_db(CovMatrix(entries=np.diag([0.5, 2.0])))
    assert sx == pytest.approx(-3.0103, abs=1e-4)
    assert sp == pytest.approx(+3.0103, abs=1e-4)


def test_squeezing_nonpositive_variance_reported():
    with pytest.raises(NonPositiveVariance):
        squeezing_db(CovMatrix(entries=np.diag([-0.1, 2.0])))


def test_squeezing_requires_single_mode():
    with pytest.raises(DimensionMismatch):
        squeezing_db(CovMatrix(entries=np.eye(4)))


# --- logarithmic negativity ----------------------------------------------


def test_identity_is_separable():
    e_n, nu = logarithmic_negativity(CovMatrix(entries=np.eye(4)))
    assert e_n == 0.0
    assert nu == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
def test_tmsv_closed_form_vs_eigen_oracle(r):
    sigma = CovMatrix(entries=tmsv(r))
    e_n, nu = logarithmic_negativity(sigma)
    assert nu == pytest.approx(math.exp(-2 * r), rel=1e-12)
    assert e_n == pytest.approx(2 * r, rel=1e-9)
    assert nu == pytest.approx(nu_minus_eigopt(sigma.entries), rel=1e-9)


def test_sampled_cross_correlated_state_is_entangled():
    # x_s-x_i positive and p_s-p_i negative correlations
    target = tmsv(0.6)
    assert target[0, 2] > 0 and target[1, 3] < 0
    batch = sample_gaussian(target, n_rep=500_000, seed=5)
    sigma = estimate_covariance(batch)
    e_n, _ = logarithmic_negativity(sigma)
    assert e_n > 0.5


def test_complex_eigenvalue_reported():
    bad = np.diag([1.0, 1.0, 1.0, 1.0]).astype(float)
    bad[0, 2] = bad[2, 0] = 3.0  # wildly unphysical cross block
    with pytest.raises(ComplexEigenvalue) as err:
        logarithmic_negativity(CovMatrix(entries=bad))
    assert err.value.violation is not None


def test_negativity_requires_two_modes():
    with pytest.raises(DimensionMismatch):
        logarithmic_negativity(CovMatrix(entries=np.eye(2)))


# --- sample_gaussian ------------------------------------------------------


def test_sampler_determinism():
    a = sample_gaussian(np.eye(4), n_rep=1000, seed=9)
    b = sample_gaussian(np.eye(4), n_rep=1000, seed=9)
    np.testing.assert_array_equal(a.records, b.records)


def test_sampler_vacuum_variance():
    batch = sample_gaussian(np.eye(2), n_rep=200_000, seed=13)
    se = 0.25 * math.sqrt(2.0 / (batch.n_rep - 1))
    for col in range(2):
        assert np.var(batch.records[:, col], ddof=1) == pytest.approx(0.25, abs=3 * se)


def test_sampler_rejects_non_psd():
    with pytest.raises(NotPSD):
        sample_gaussian(np.diag([1.0, -0.5]), n_rep=100, seed=0)


def test_sampler_semidefinite_fallback():
    # rank-deficient target goes through the eigendecomposition fallback
    target = np.zeros((2, 2))
    batch = sample_gaussian(target, n_rep=50, seed=0)
    np.testing.assert_array_equal(batch.records, np.zeros((50, 2)))


# --- the synthetic measurement model ---------------------------------------


@pytest.mark.parametrize("variance, angle", [(0.5, 0.0), (0.5, 0.9), (3.0, -2.2), (1e-3, math.pi / 2)])
def test_squeezed_vacuum_closed_form(variance, angle):
    # variance v at angle t from x: v cos^2 t + sin^2 t / v on x, and
    # eigenvalues v and 1/v
    c, s = math.cos(angle), math.sin(angle)
    expected = np.array(
        [[variance * c**2 + s**2 / variance, (1.0 / variance - variance) * c * s],
         [(1.0 / variance - variance) * c * s, variance * s**2 + c**2 / variance]]
    )
    state = gaussian.squeezed_vacuum(variance, angle)
    np.testing.assert_allclose(state, expected, rtol=1e-12, atol=1e-12 / variance)
    np.testing.assert_allclose(np.linalg.eigvalsh(state), sorted([variance, 1.0 / variance]), rtol=1e-9)
    assert CovMatrix(entries=state).is_physical()


@pytest.mark.parametrize("r, n_thermal", [(0.0, 0.0), (0.7, 0.0), (-1.3, 2.5), (4.0, 0.1)])
def test_two_mode_squeezed_is_tmsv(r, n_thermal):
    np.testing.assert_array_equal(gaussian.two_mode_squeezed(r, n_thermal), tmsv(r, n_thermal))


@pytest.mark.parametrize("drift", [0.0, -0.02, 0.3])
def test_pump_states_closed_form(drift):
    # OFF = (1 + 2n) 1 and ON = target - 1 + OFF (1 + d)^2, exactly so at d = 0
    targets = [gaussian.squeezed_vacuum(0.5, 0.3), tmsv(0.6, 0.2)]
    pairs = gaussian.pump_states(targets, 1.5, drift)
    assert len(pairs) == len(targets)
    for target, (on, off) in zip(targets, pairs):
        eye = np.eye(len(target))
        np.testing.assert_array_equal(off, 4.0 * eye)
        np.testing.assert_allclose(on, target - eye + 4.0 * (1.0 + drift) ** 2 * eye, rtol=1e-15, atol=0)
        if drift == 0.0:
            np.testing.assert_array_equal(on, target - eye + off)


@pytest.mark.parametrize(
    "targets, noise, drift, message",
    [
        ([tmsv(0.0), tmsv(0.5)], 1.5, -1.0, "point 1's pump-ON state has eigenvalue"),
        ([np.eye(2)], 1e308, 0.0, "point 0's pump-ON state has a non-finite entry"),
        ([10.0 * np.eye(2)], -1.0, 0.0, "point 0's pump-OFF state has eigenvalue"),
        ([np.eye(2)], 0.0, 1e200, "point 0's pump-ON state has a non-finite entry"),
    ],
)
def test_pump_states_reject_a_pair_that_is_no_state_before_sampling(forks, targets, noise, drift, message):
    with pytest.raises(NotPSD, match=message):
        gaussian.pump_states(targets, noise, drift)
    assert not forks


def test_measure_states_draws_each_point_from_its_spawn_key(forks):
    # ON then OFF from spawn key (idx,) of the seed, in this process or a child
    pairs = gaussian.pump_states([tmsv(0.2), tmsv(0.4), tmsv(0.6)], 1.0, 0.01)
    psis = gaussian.measure_states(pairs, 500, 3, 1.0)
    assert len(forks) == 1 and len(psis) == 3
    for idx, ((on_true, off_true), psi) in enumerate(zip(pairs, psis)):
        on_seed, off_seed = np.random.SeedSequence(entropy=3, spawn_key=(idx,)).spawn(2)
        on = estimate_covariance(sample_gaussian(on_true, n_rep=500, seed=on_seed, pump_state="ON"))
        off = estimate_covariance(sample_gaussian(off_true, n_rep=500, seed=off_seed))
        expected = subtract_background(on, off, gain_uncertainty_db=1.0)
        np.testing.assert_array_equal(psi.entries, expected.entries)
        np.testing.assert_array_equal(psi.uncertainty, expected.uncertainty)
        np.testing.assert_array_equal(np.array(psi.systematic), np.array(expected.systematic))


# --- invariants -----------------------------------------------------------


def test_ppt_consistency_random_states():
    # closed form nu_minus equals the eigendecomposition oracle on random
    # physical two-mode Gaussian states
    rng = np.random.default_rng(2024)
    for _ in range(50):
        r = rng.uniform(0.0, 1.5)
        n_th = rng.uniform(0.0, 2.0)
        sigma = tmsv(r, n_thermal=n_th)
        s = np.kron(np.eye(2), rotation(rng.uniform(0, 2 * np.pi)))
        sigma = s @ sigma @ s.T
        cov = CovMatrix(entries=0.5 * (sigma + sigma.T))
        assert cov.is_physical(tol=1e-7)
        _, nu = logarithmic_negativity(cov)
        assert nu == pytest.approx(nu_minus_eigopt(cov.entries), rel=1e-9)


def test_en_monotone_in_r():
    grid = np.linspace(0.0, 2.0, 50)
    values = [logarithmic_negativity(CovMatrix(entries=tmsv(r)))[0] for r in grid[1:]]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_en_invariant_under_local_rotations():
    rng = np.random.default_rng(77)
    sigma = tmsv(0.7, n_thermal=0.2)
    e_ref, _ = logarithmic_negativity(CovMatrix(entries=sigma))
    for _ in range(10):
        s = np.zeros((4, 4))
        s[:2, :2] = rotation(rng.uniform(0, 2 * np.pi))
        s[2:, 2:] = rotation(rng.uniform(0, 2 * np.pi))
        rotated = s @ sigma @ s.T
        e_rot, _ = logarithmic_negativity(CovMatrix(entries=0.5 * (rotated + rotated.T)))
        assert e_rot == pytest.approx(e_ref, abs=1e-9)


def test_physicality_check():
    assert CovMatrix(entries=np.eye(4)).is_physical()
    assert not CovMatrix(entries=0.1 * np.eye(4)).is_physical()


# --- file interfaces ------------------------------------------------------


def test_quadrature_csv_round_trip(tmp_path):
    on = sample_gaussian(tmsv(0.3), n_rep=20, seed=1, pump_state="ON")
    off = sample_gaussian(np.eye(4), n_rep=20, seed=2, pump_state="OFF")
    path = tmp_path / "quad.csv"
    write_quadrature_csv(path, [on, off])
    back = read_quadrature_csv(path)
    assert set(back) == {"ON", "OFF"}
    np.testing.assert_allclose(back["ON"].records, on.records, rtol=0, atol=0)
    np.testing.assert_allclose(back["OFF"].records, off.records, rtol=0, atol=0)
    assert back["ON"].mode_labels == ("signal", "idler")


def reference_write(path, batches):
    """The quadrature CSV written one row at a time: the format's definition."""
    lines = [
        "# snailtwpa quadrature records v1",
        "# normalized=true",
        f"# modes={','.join(max((b.mode_labels for b in batches), key=len))}",
        "rep_index,mode,x,p,pump_state",
    ]
    for batch in batches:
        for i in range(batch.n_rep):
            for m, label in enumerate(batch.mode_labels):
                x = repr(float(batch.records[i, 2 * m]))
                p = repr(float(batch.records[i, 2 * m + 1]))
                lines.append(f"{i},{label},{x},{p},{batch.pump_state}")
    Path(path).write_text("\n".join(lines) + "\n")


def reference_read(path):
    """The quadrature CSV parsed one line at a time: the reader's reference.
    The records of a file whose last ``normalized=`` comment is false are
    raw, and raise ValueError."""
    normalized, rows = True, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                if "normalized=" in line:
                    normalized = line.split("normalized=")[1].strip() == "true"
            elif line and not line.startswith("rep_index"):
                rep, mode, x, p, pump = line.split(",")
                rows.append((int(rep), mode, float(x), float(p), pump))
    if not normalized:
        raise ValueError("the records are raw")
    out = {}
    for pump in sorted({r[4] for r in rows}):
        sel = [r for r in rows if r[4] == pump]
        labels = ("signal", "idler") if any(r[1] == "idler" for r in sel) else ("signal",)
        records = np.zeros((max(r[0] for r in sel) + 1, 2 * len(labels)))
        for rep, mode, x, p, _ in sel:
            records[rep, 2 * labels.index(mode)] = x
            records[rep, 2 * labels.index(mode) + 1] = p
        out[pump] = (records, labels)
    return out


def assert_same_batches(back, expected):
    assert list(back) == list(expected)
    for pump, (records, labels) in expected.items():
        assert back[pump].records.tobytes() == records.tobytes()
        assert back[pump].mode_labels == labels


EDGE_VALUES = [1e-05, 1e16, -0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308, 0.1, 123456.789]


@pytest.mark.parametrize("layout", ["one-mode", "two-mode", "mixed"])
def test_quadrature_csv_writer_matches_row_formula(tmp_path, layout):
    one = QuadratureBatch(np.reshape(EDGE_VALUES, (4, 2)), pump_state="OFF")
    two = QuadratureBatch(np.reshape(EDGE_VALUES[::-1], (2, 4)), pump_state="ON")
    batches = {"one-mode": [one], "two-mode": [two], "mixed": [two, one]}[layout]
    write_quadrature_csv(tmp_path / "new.csv", batches)
    reference_write(tmp_path / "ref.csv", batches)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert_same_batches(read_quadrature_csv(tmp_path / "new.csv"), reference_read(tmp_path / "ref.csv"))


HEAD = "# snailtwpa quadrature records v1\n# normalized=true\n# modes=signal\nrep_index,mode,x,p,pump_state\n"
READER_CASES = {
    "blank lines": HEAD + "\n0,signal,1.5,-2.0,ON\n\n   \n1,signal,0.25,3e-10,ON\n\n",
    "surrounding whitespace": HEAD + "  0,signal,1.5,-2.0,ON \t\n\t1,signal,0.25,3e-10,ON   \n",
    "crlf": HEAD.replace("\n", "\r\n") + "0,signal,1.5,-2.0,OFF\r\n1,signal,-0.0,5e-324,OFF\r\n",
    "out of order": HEAD + "2,signal,3.0,3.5,ON\n0,signal,1.0,1.5,ON\n1,signal,2.0,2.5,ON\n",
    "raw, then normalized": HEAD.replace("normalized=true", "normalized=false")
    + "0,signal,1.0,2.0,ON\n# normalized=true\n1,signal,2.0,1.0,ON\n",
    "no data": HEAD + "\n# nothing recorded\n",
    "no final newline": HEAD + "0,signal,1.5,-2.0,ON\n1,signal,0.25,3e-10,ON",
    "two-mode ON and one-mode OFF": HEAD
    + "0,signal,1.0,2.0,ON\n0,idler,3.0,4.0,ON\n1,idler,-3.0,-4.0,ON\n1,signal,-1.0,-2.0,ON\n"
    + "rep_index,mode,x,p,pump_state\n0,signal,0.5,0.25,OFF\n1,signal,0.125,1e300,OFF\n",
}


@pytest.mark.parametrize("case", list(READER_CASES))
def test_quadrature_csv_reader_edge_cases(tmp_path, case):
    path = tmp_path / "quad.csv"
    path.write_bytes(READER_CASES[case].encode())
    assert_same_batches(read_quadrature_csv(path), reference_read(path))


def test_quadrature_csv_reader_edge_case_values(tmp_path):
    path = tmp_path / "quad.csv"
    path.write_bytes(READER_CASES["two-mode ON and one-mode OFF"].encode())
    back = read_quadrature_csv(path)
    assert back["ON"].mode_labels == ("signal", "idler") and back["OFF"].mode_labels == ("signal",)
    assert np.array_equal(back["ON"].records, [[1, 2, 3, 4], [-1, -2, -3, -4]])
    path.write_bytes(READER_CASES["no data"].encode())
    assert read_quadrature_csv(path) == {}


BAD_ROWS = {  # a bad row, and what the reader says of it after "line N: "
    "7,signal,abc,1.0,ON": "field 3 (x) cannot be read as float64: 'abc'",
    "7,signal,1.0,ON": "field count 4, not 5 (rep_index,mode,x,p,pump_state)",
    "7,signal,1.0,2.0,ON,9": "field count 6, not 5 (rep_index,mode,x,p,pump_state)",
    "7.5,signal,1.0,2.0,ON": "field 1 (rep) cannot be read as int64: '7.5'",
    "7,pump,1.0,2.0,ON": "invalid row '7,pump,1.0,2.0,ON'",
    "7,signals,1.0,2.0,ON": "invalid row '7,signals,1.0,2.0,ON'",
    "7,signal,1.0,2.0,on": "invalid row '7,signal,1.0,2.0,on'",
    "-7,signal,1.0,2.0,ON": "invalid row '-7,signal,1.0,2.0,ON'",
    "7,signal,nan,2.0,ON": "invalid row '7,signal,nan,2.0,ON'",
    # only a line that starts with '#' is a comment: a '#' in a row is data
    "7,signal,1.0,2.0,ON#note": "invalid row '7,signal,1.0,2.0,ON#note'",
    "7,signal,1.0,2.0,ON # note": "invalid row '7,signal,1.0,2.0,ON # note'",
    "7,signal,1.0,2.0#,ON": "field 4 (p) cannot be read as float64: '2.0#'",
}


@pytest.mark.parametrize("bad_row", list(BAD_ROWS))
def test_quadrature_csv_reader_names_bad_line(tmp_path, bad_row):
    # the message names the line, and the field or the field count, never
    # numpy's row and column within the lines it was given
    lines = HEAD.splitlines() + [f"{i},signal,{i}.5,-{i}.25,ON" for i in range(60)]
    lines[40] = bad_row  # line 41 of the file
    path = tmp_path / "quad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        read_quadrature_csv(path)
    assert str(err.value) == f"line 41: {BAD_ROWS[bad_row]}"


# each mode of a pump state needs exactly one row per repetition 0..n-1
REP_DEFECTS = {
    "missing reps": (
        HEAD + "4,signal,1.0,2.0,OFF\n1,signal,-1.0,-2.0,OFF\n",
        "^pump state OFF: the signal mode has no row for repetition 0 of 0..4$",
    ),
    "mode missing a rep": (
        HEAD + "0,signal,1.0,2.0,ON\n0,idler,3.0,4.0,ON\n1,signal,-1.0,-2.0,ON\n",
        "^pump state ON: the idler mode has no row for repetition 1 of 0..1$",
    ),
    "repeated rep": (
        HEAD + "0,signal,1.0,2.0,ON\n1,signal,2.0,1.0,ON\n\n0,signal,5.0,6.0,ON\n",
        "^line 8: repeats repetition 0 of the signal mode of pump state ON$",
    ),
    "huge rep index": (
        HEAD + "0,signal,1.0,2.0,ON\n1000000000000000,signal,2.0,1.0,ON\n",
        "^pump state ON: the signal mode has no row for repetition 1 of 0..1000000000000000$",
    ),
}


@pytest.mark.parametrize("case", list(REP_DEFECTS))
def test_quadrature_csv_reader_rejects_missing_and_repeated_reps(tmp_path, case):
    text, message = REP_DEFECTS[case]
    path = tmp_path / "quad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=message):
        read_quadrature_csv(path)


finite_records = st.integers(2, 12).flatmap(
    lambda n: st.sampled_from([2, 4]).flatmap(
        lambda cols: hnp.arrays(np.float64, (n, cols), elements=st.floats(allow_nan=False, allow_infinity=False))
    )
)


@settings(max_examples=60, deadline=None)
@given(on=finite_records, off=finite_records)
def test_quadrature_csv_round_trip_is_bit_exact(tmp_path_factory, on, off):
    batches = [QuadratureBatch(on, pump_state="ON"), QuadratureBatch(off, pump_state="OFF")]
    path = tmp_path_factory.mktemp("quad") / "quad.csv"
    write_quadrature_csv(path, batches)
    back = read_quadrature_csv(path)
    assert back["ON"].records.tobytes() == on.tobytes()
    assert back["OFF"].records.tobytes() == off.tobytes()


# --- the writer's parts run in forked children -----------------------------


def _layouts(n_rep):
    one = sample_gaussian(np.diag([0.5, 2.0]), n_rep=n_rep, seed=4, pump_state="OFF")
    two = sample_gaussian(tmsv(0.3), n_rep=n_rep, seed=5, pump_state="ON")
    return {"one-mode": [one], "two-mode": [two], "mixed": [two, one]}


@pytest.mark.parametrize("n_rep", [7, 2], ids=["7 reps", "2 reps"])
@pytest.mark.parametrize("layout", ["one-mode", "two-mode", "mixed"])
def test_quadrature_csv_parts_write_one_cpu_bytes(tmp_path, forks, monkeypatch, layout, n_rep):
    # the repetitions of all the batches are cut once: 7 do not divide
    # into 2 or 3 parts, and the mixed layout's 14 in 3 parts put one part
    # across both batches; 2 are fewer than 3 CPUs, and no part may be
    # empty, so one batch of them is cut in 2
    batches = _layouts(n_rep)[layout]
    written = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        before = len(forks)
        write_quadrature_csv(tmp_path / f"{cpus}.csv", batches)
        written[cpus] = (tmp_path / f"{cpus}.csv").read_bytes()
        assert len(forks) - before == min(cpus, sum(b.n_rep for b in batches)) - 1
    reference_write(tmp_path / "ref.csv", batches)
    assert written[1] == (tmp_path / "ref.csv").read_bytes()
    assert written[2] == written[1] and written[3] == written[1]


@pytest.mark.parametrize("fate", ["exit", "raise"])
def test_quadrature_csv_part_that_fails_leaves_no_file(tmp_path, forks, monkeypatch, fate):
    parent = os.getpid()
    csv_text = gaussian._csv_text

    def failing_in_child(*args):
        if os.getpid() != parent:
            if fate == "exit":
                os._exit(3)
            raise RuntimeError("lost in the child")
        return csv_text(*args)

    monkeypatch.setattr(gaussian, "_csv_text", failing_in_child)
    expected = (SnailTwpaError, "exited with status 3") if fate == "exit" else (RuntimeError, "lost in the child")
    with pytest.raises(expected[0], match=expected[1]):
        write_quadrature_csv(tmp_path / "quad.csv", _layouts(4)["two-mode"])
    assert len(forks) == 1
    assert not (tmp_path / "quad.csv").exists()


def test_quadrature_csv_write_stays_in_process_while_another_thread_runs(tmp_path, forks):
    batches = _layouts(7)["mixed"]
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60.0,))
    thread.start()
    try:
        write_quadrature_csv(tmp_path / "quad.csv", batches)
    finally:
        release.set()
        thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert not forks
    reference_write(tmp_path / "ref.csv", batches)
    assert (tmp_path / "quad.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("repeat", [True, False], ids=["repeated-pump-state", "no-batch"])
def test_quadrature_csv_writer_refuses_a_repeated_pump_state(tmp_path, forks, repeat):
    two, one = _layouts(4)["mixed"]
    path = tmp_path / "quad.csv"
    path.write_text("kept")
    with pytest.raises(ValueError, match="pump state ON" if repeat else "^no batches to write"):
        write_quadrature_csv(path, [two, one, two] if repeat else [])
    assert not forks
    assert path.read_text() == "kept"


# --- the reader's parts run in forked children -----------------------------


def parts_on_cpus(path, monkeypatch, cpus):
    """Make ``cpus`` CPUs usable; the text of each part the reader then
    makes: the lines that start in its range of positions of the one cut."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    with open(path) as fh:
        text = fh.read()
    starts = [0] + [n + 1 for n, char in enumerate(text[:-1]) if char == "\n"]
    lines = list(zip(starts, [text[a:b] for a, b in zip(starts, starts[1:] + [len(text)])]))
    parts = ["".join(line for a, line in lines if a in span) for span in parallel._cut(range(len(text)), cpus)]
    assert "".join(parts) == text and all(part.endswith("\n") for part in parts[:-1])
    return parts


def on_a_cut(parts, line):
    """Whether ``line`` ends one part or starts the next."""
    return any(a.endswith(f"\n{line}\n") or b.startswith(f"{line}\n") for a, b in zip(parts, parts[1:]))


def read_on_cpus(path, forks, monkeypatch, cpus):
    """The reader's result with ``cpus`` usable CPUs, checked to fork once
    per part beyond the first, and the text of each part."""
    parts = parts_on_cpus(path, monkeypatch, cpus)
    before = len(forks)
    back = read_quadrature_csv(path)
    assert len(forks) - before == len(parts) - 1
    return back, parts


def assert_reads_alike(path, forks, monkeypatch):
    """The batches on 1, 2 and 3 CPUs each equal the reference (so each
    other); returns the line ranges of each read."""
    expected = reference_read(path)
    ranges = {}
    for cpus in (1, 2, 3):
        back, ranges[cpus] = read_on_cpus(path, forks, monkeypatch, cpus)
        assert_same_batches(back, expected)
    return ranges


@pytest.mark.parametrize("case", list(READER_CASES))
def test_quadrature_csv_reader_parts_read_the_reference(tmp_path, forks, monkeypatch, case):
    path = tmp_path / "quad.csv"
    path.write_bytes(READER_CASES[case].encode())
    assert_reads_alike(path, forks, monkeypatch)


CUT_ROWS = [f"{i},{m},{i}.5,-{i}.25,ON" for i in range(4) for m in ("signal", "idler")] + [
    f"{i},signal,{i}.125,{i}e-3,OFF" for i in range(4)
]
CUT_LINES = {  # a line the reader skips, and the line end of the file it goes in
    "blank": ("  \t", "\n"),
    "comment": ("# normalized=true", "\n"),
    "header": ("rep_index,mode,x,p,pump_state", "\n"),
    "crlf": ("", "\r\n"),
}


@pytest.mark.parametrize("kind", list(CUT_LINES))
def test_quadrature_csv_reader_lines_on_a_cut(tmp_path, forks, monkeypatch, kind):
    # the skipped line goes before each data row in turn; some of these
    # files put it last or first in a range of 2 or 3 parts
    special, end = CUT_LINES[kind]
    on_cut = set()
    for k in range(len(CUT_ROWS) + 1):
        lines = HEAD.splitlines() + CUT_ROWS[:k] + [special] + CUT_ROWS[k:]
        path = tmp_path / f"{k}.csv"
        path.write_bytes((end.join(lines) + end).encode())
        for cpus, parts in assert_reads_alike(path, forks, monkeypatch).items():
            if on_a_cut(parts, special):
                on_cut.add(cpus)
    assert on_cut == {2, 3}


def test_quadrature_csv_reader_refuses_raw_records(tmp_path, forks, monkeypatch):
    # a "normalized=false" comment before each data row in turn makes the
    # records raw on 1, 2 or 3 CPUs, whether or not it lands on a cut; a
    # later "normalized=true", in any part, makes them usable again
    raw = "# normalized=false"
    on_cut = set()
    for k in range(len(CUT_ROWS) + 1):
        lines = HEAD.splitlines() + CUT_ROWS[:k] + [raw] + CUT_ROWS[k:]
        path = tmp_path / f"{k}.csv"
        path.write_text("\n".join(lines) + "\n")
        for cpus in (1, 2, 3):
            if on_a_cut(parts_on_cpus(path, monkeypatch, cpus), raw):
                on_cut.add(cpus)
            with pytest.raises(ValueError, match=r"^the records are raw \(normalized=false\)"):
                read_quadrature_csv(path)
        path.write_text("\n".join(lines + ["# normalized=true"]) + "\n")
        assert_reads_alike(path, forks, monkeypatch)
    assert on_cut == {2, 3}


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_quadrature_csv_reader_state_with_idler_rows_needs_signal_rows(tmp_path, forks, monkeypatch, cpus):
    # a state with an idler row holds both modes, so its signal rows are missing
    path = tmp_path / "quad.csv"
    path.write_text(HEAD + "".join(f"{i},idler,{i}.5,-{i}.25,ON\n{i},signal,{i}.125,1.0,OFF\n" for i in range(2)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    with pytest.raises(ValueError, match=r"^pump state ON: the signal mode has no row for repetition 0 of 0\.\.1$"):
        read_quadrature_csv(path)
    assert len(forks) == cpus - 1


def test_quadrature_csv_reader_part_without_data(tmp_path, forks, monkeypatch):
    # two data rows and three CPUs: the header lines fill the first range
    path = tmp_path / "quad.csv"
    path.write_text(HEAD + "0,signal,1.5,-2.0,ON\n1,signal,0.25,3e-10,ON\n")
    ranges = assert_reads_alike(path, forks, monkeypatch)
    assert len(ranges[3]) == 3 and not any(line[:1].isdigit() for line in ranges[3][0].splitlines())


def _numbered_rows(n):
    return HEAD.splitlines() + [f"{i},signal,{i}.5,-{i}.25,ON" for i in range(n)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_quadrature_csv_reader_parse_error_outranks_earlier_invalid_row(tmp_path, forks, monkeypatch, cpus):
    lines = _numbered_rows(60)
    lines[10] = "6,pump,1.0,2.0,ON"  # line 11, invalid, in the first range
    lines[55] = "51,signal,abc,1.0,ON"  # line 56, does not parse, in the last
    path = tmp_path / "quad.csv"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(ValueError) as one_cpu:
        read_quadrature_csv(path)
    assert str(one_cpu.value) == "line 56: field 3 (x) cannot be read as float64: 'abc'"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    with pytest.raises(ValueError) as err:
        read_quadrature_csv(path)
    assert str(err.value) == str(one_cpu.value)
    lines[55] = "51,signal,1.0,1.0,ON"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^line 11: invalid row '6,pump,1.0,2.0,ON'$"):
        read_quadrature_csv(path)
    # then raw records (the last comment, in the last range), then repetitions
    raw = lines + ["# normalized=false"]
    repeat = {10: "3,signal,0.5,0.5,ON"}  # line 11 repeats line 8's repetition
    for text, edits, message in [
        (raw, {}, "^line 11: invalid row '6,pump,1.0,2.0,ON'$"),
        (raw, {55: "51,signal,abc,1.0,ON"}, r"^line 56: field 3 \(x\) cannot be read as float64: 'abc'$"),
        (raw, repeat, r"^the records are raw \(normalized=false\)"),
        (lines, repeat, "^line 11: repeats repetition 3 of the signal mode of pump state ON$"),
    ]:
        path.write_text("\n".join(edits.get(k, line) for k, line in enumerate(text)) + "\n")
        with pytest.raises(ValueError, match=message):
            read_quadrature_csv(path)
    assert len(forks) == 6 * (cpus - 1)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_quadrature_csv_reader_repeat_across_ranges_names_the_later_line(tmp_path, forks, monkeypatch, cpus):
    lines = _numbered_rows(60)
    lines[60] = "3,signal,0.5,0.5,ON"  # line 61 repeats line 8's repetition
    path = tmp_path / "quad.csv"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    with pytest.raises(ValueError, match="^line 61: repeats repetition 3 of the signal mode of pump state ON$"):
        read_quadrature_csv(path)
    assert len(forks) == cpus - 1


def test_covariance_json_round_trip():
    sigma = estimate_covariance(sample_gaussian(tmsv(0.4), n_rep=5000, seed=3))
    payload = sigma.to_dict()
    assert sorted(payload) == ["dim", "entries", "physical", "systematic", "uncertainty"]
    assert payload["dim"] == 4
    assert isinstance(payload["physical"], bool)
    assert payload["systematic"] is None
    assert payload["entries"] == sigma.entries.tolist()
    assert payload["uncertainty"] == sigma.uncertainty.tolist()
