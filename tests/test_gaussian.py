import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from snailtwpa.errors import (
    ComplexEigenvalue,
    DegenerateBatch,
    DimensionMismatch,
    NonPositiveVariance,
    NotNormalized,
    NotPSD,
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


def test_rejects_unnormalized_and_degenerate():
    batch = QuadratureBatch(records=np.zeros((10, 2)), normalized=False)
    with pytest.raises(NotNormalized):
        estimate_covariance(batch)
    with pytest.raises(DegenerateBatch):
        QuadratureBatch(records=np.zeros((1, 2)))


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
    assert back["ON"].normalized is True


def reference_write(path, batches):
    """The quadrature CSV written one row at a time: the format's definition."""
    lines = [
        "# snailtwpa quadrature records v1",
        f"# normalized={'true' if batches[0].normalized else 'false'}",
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
    """The quadrature CSV parsed one line at a time: the reader's reference."""
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
    out = {}
    for pump in sorted({r[4] for r in rows}):
        sel = [r for r in rows if r[4] == pump]
        labels = tuple(lbl for lbl in ("signal", "idler") if any(r[1] == lbl for r in sel))
        records = np.zeros((max(r[0] for r in sel) + 1, 2 * len(labels)))
        for rep, mode, x, p, _ in sel:
            records[rep, 2 * labels.index(mode)] = x
            records[rep, 2 * labels.index(mode) + 1] = p
        out[pump] = (records, labels, normalized)
    return out


def assert_same_batches(back, expected):
    assert list(back) == list(expected)
    for pump, (records, labels, normalized) in expected.items():
        assert back[pump].records.tobytes() == records.tobytes()
        assert back[pump].mode_labels == labels
        assert back[pump].normalized is normalized


EDGE_VALUES = [1e-05, 1e16, -0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308, 0.1, 123456.789]


@pytest.mark.parametrize("layout", ["one-mode", "two-mode", "mixed"])
def test_quadrature_csv_writer_matches_row_formula(tmp_path, layout):
    one = QuadratureBatch(np.reshape(EDGE_VALUES, (4, 2)), pump_state="OFF")
    two = QuadratureBatch(np.reshape(EDGE_VALUES[::-1], (2, 4)), mode_labels=("signal", "idler"), pump_state="ON")
    batches = {"one-mode": [one], "two-mode": [two], "mixed": [two, one, two]}[layout]
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
    "missing reps": HEAD + "4,signal,1.0,2.0,OFF\n1,signal,-1.0,-2.0,OFF\n",
    "not normalized": HEAD.replace("normalized=true", "normalized=false") + "0,signal,1.0,2.0,ON\n1,signal,2.0,1.0,ON\n",
    "no data": HEAD + "\n# nothing recorded\n",
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
    path.write_bytes(READER_CASES["missing reps"].encode())
    off = read_quadrature_csv(path)["OFF"]
    assert np.array_equal(off.records, [[0, 0], [-1, -2], [0, 0], [0, 0], [1, 2]])
    path.write_bytes(READER_CASES["two-mode ON and one-mode OFF"].encode())
    back = read_quadrature_csv(path)
    assert back["ON"].mode_labels == ("signal", "idler") and back["OFF"].mode_labels == ("signal",)
    assert np.array_equal(back["ON"].records, [[1, 2, 3, 4], [-1, -2, -3, -4]])
    path.write_bytes(READER_CASES["not normalized"].encode())
    assert read_quadrature_csv(path)["ON"].normalized is False
    path.write_bytes(READER_CASES["no data"].encode())
    assert read_quadrature_csv(path) == {}


@pytest.mark.parametrize(
    "bad_row",
    ["7,signal,abc,1.0,ON", "7,signal,1.0,ON", "7,signal,1.0,2.0,ON,9", "7.5,signal,1.0,2.0,ON",
     "7,pump,1.0,2.0,ON", "7,signals,1.0,2.0,ON", "7,signal,1.0,2.0,on", "-7,signal,1.0,2.0,ON",
     "7,signal,nan,2.0,ON"],
)
def test_quadrature_csv_reader_names_bad_line(tmp_path, bad_row):
    lines = HEAD.splitlines() + [f"{i},signal,{i}.5,-{i}.25,ON" for i in range(60)]
    lines[40] = bad_row  # line 41 of the file
    path = tmp_path / "quad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^line 41: "):
        read_quadrature_csv(path)


finite_records = st.integers(2, 12).flatmap(
    lambda n: st.sampled_from([2, 4]).flatmap(
        lambda cols: hnp.arrays(np.float64, (n, cols), elements=st.floats(allow_nan=False, allow_infinity=False))
    )
)


@settings(max_examples=60, deadline=None)
@given(on=finite_records, off=finite_records)
def test_quadrature_csv_round_trip_is_bit_exact(tmp_path_factory, on, off):
    labels = {2: ("signal",), 4: ("signal", "idler")}
    batches = [
        QuadratureBatch(on, mode_labels=labels[on.shape[1]], pump_state="ON"),
        QuadratureBatch(off, mode_labels=labels[off.shape[1]], pump_state="OFF"),
    ]
    path = tmp_path_factory.mktemp("quad") / "quad.csv"
    write_quadrature_csv(path, batches)
    back = read_quadrature_csv(path)
    assert back["ON"].records.tobytes() == on.tobytes()
    assert back["OFF"].records.tobytes() == off.tobytes()


def test_covariance_json_round_trip():
    sigma = estimate_covariance(sample_gaussian(tmsv(0.4), n_rep=5000, seed=3))
    payload = sigma.to_dict()
    assert sorted(payload) == ["dim", "entries", "physical", "systematic", "uncertainty"]
    assert payload["dim"] == 4
    assert isinstance(payload["physical"], bool)
    assert payload["systematic"] is None
    assert payload["entries"] == sigma.entries.tolist()
    assert payload["uncertainty"] == sigma.uncertainty.tolist()
