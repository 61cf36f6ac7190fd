"""Acceptance criteria for the package, one test per criterion.

Every expected value here is either a frozen literal cross-checked in the
same test against an independent computation (dense eigensolver, exact
enumeration) or an explicit tolerance band.  The conftest terminal hook
prints one PASS/FAIL line per criterion at the end of the run; this
module is always collected last so the wall-clock criterion covers the
whole suite.
"""

import time

import numpy as np
import pytest

from pathspin import (
    AlicePolicy,
    BobPolicy,
    Frame,
    AbortEnsemble,
    SpinBasis,
    StateLabel,
    closed_form_family,
    correlation_matrix,
    ensemble_from_aborts,
    horodecki_m,
    pipeline_distribution,
    qber,
    run_session,
    save_transcript,
    security_decision,
    violation_threshold,
)
from pathspin.optics import HALF_PI

# ---------------------------------------------------------------------------
# criterion 1: closed-form family values reproduce the reference table
# to +/-0.01, evaluated in under a second

REFERENCE_TABLE = (
    # (p, M, eta1, eta2)
    (0.67, 1.01, 0.39, 0.11),
    (0.70, 1.08, 0.40, 0.10),
    (0.75, 1.20, 0.41, 0.08),
    (0.80, 1.34, 0.43, 0.06),
    (0.85, 1.49, 0.45, 0.05),
    (0.90, 1.64, 0.46, 0.03),
    (0.95, 1.81, 0.48, 0.01),
    (1.00, 2.00, 0.50, 0.00),
)


def test_criterion_01_reference_table_within_0_01():
    start = time.perf_counter()
    for p, m_ref, eta1_ref, eta2_ref in REFERENCE_TABLE:
        _, _, m = closed_form_family(p)
        q = (1.0 - p) / 3.0
        assert abs(m - m_ref) <= 0.01, f"M({p}) = {m}"
        assert abs(0.5 * (p + q) - eta1_ref) <= 0.01
        assert abs(q - eta2_ref) <= 0.01
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# criterion 2: the violation threshold of the family sits in (0.66, 0.67]
# and the functional equals one there to 1e-9


def test_criterion_02_violation_threshold_location():
    p_star = violation_threshold()
    assert 0.66 < p_star <= 0.67
    assert round(p_star, 2) == 0.67
    _, _, m = closed_form_family(p_star)
    assert abs(m - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 3: the (0.4, 0.2, 0.2, 0.2) ensemble evaluates to the frozen
# value and to a dense eigensolver's answer within 1e-9

WORKED_EXAMPLE_M = 0.5729822128134705


def test_criterion_03_worked_example_matches_dense_solver():
    ens = AbortEnsemble((4, 2, 2, 2))
    for frame in Frame:
        t = correlation_matrix(ens, frame)
        dense = np.sort(np.linalg.eigvalsh(t.T @ t))
        m_oracle = float(dense[-1] + dense[-2])
        _, _, m = horodecki_m(correlation_matrix(ens, frame))
        assert abs(m - m_oracle) <= 1e-9
        assert abs(m - WORKED_EXAMPLE_M) <= 1e-12
    assert not security_decision(ens, min_count=1).secure


# ---------------------------------------------------------------------------
# criterion 4: all sixteen (state, phase, basis) outcome rows match the
# expected distributions to 1e-12

_KEEP_A = (0.5, 0.0, 0.0, 0.5)
_KEEP_B = (0.0, 0.5, 0.5, 0.0)
_ABORT = (0.25, 0.25, 0.25, 0.25)

OUTCOME_TABLE = {
    (StateLabel.PSI, 0.0, SpinBasis.Z): _ABORT,
    (StateLabel.PSI, 0.0, SpinBasis.Y): _KEEP_A,
    (StateLabel.PSI, HALF_PI, SpinBasis.Z): _KEEP_A,
    (StateLabel.PSI, HALF_PI, SpinBasis.Y): _ABORT,
    (StateLabel.PSI_PERP, 0.0, SpinBasis.Z): _ABORT,
    (StateLabel.PSI_PERP, 0.0, SpinBasis.Y): _KEEP_B,
    (StateLabel.PSI_PERP, HALF_PI, SpinBasis.Z): _KEEP_B,
    (StateLabel.PSI_PERP, HALF_PI, SpinBasis.Y): _ABORT,
    (StateLabel.PHI, 0.0, SpinBasis.Z): _KEEP_A,
    (StateLabel.PHI, 0.0, SpinBasis.Y): _ABORT,
    (StateLabel.PHI, HALF_PI, SpinBasis.Z): _ABORT,
    (StateLabel.PHI, HALF_PI, SpinBasis.Y): _KEEP_A,
    (StateLabel.PHI_PERP, 0.0, SpinBasis.Z): _KEEP_B,
    (StateLabel.PHI_PERP, 0.0, SpinBasis.Y): _ABORT,
    (StateLabel.PHI_PERP, HALF_PI, SpinBasis.Z): _ABORT,
    (StateLabel.PHI_PERP, HALF_PI, SpinBasis.Y): _KEEP_B,
}


def test_criterion_04_sixteen_outcome_rows_exact():
    assert len(OUTCOME_TABLE) == 16
    for (label, phi, basis), expected in OUTCOME_TABLE.items():
        got = pipeline_distribution(label, phi, basis)
        np.testing.assert_allclose(
            got, expected, atol=1e-12,
            err_msg=f"({label.value}, phi={phi}, {basis.value})",
        )


# ---------------------------------------------------------------------------
# criterion 5: an honest 100k-round session keeps half the rounds
# (+/-0.005), produces identical keys, and simulates in under 10 seconds


def test_criterion_05_honest_session_statistics(uniform_run):
    transcript, elapsed = uniform_run
    assert abs(transcript.keep_fraction() - 0.5) <= 0.005
    assert transcript.alice_key == transcript.bob_key
    assert qber(transcript).rate == 0.0
    assert transcript.decode_failures() == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 6: the two correlation-matrix constructions agree to 1e-10
# on arbitrary abort ensembles ... and the documented expectation that an
# asymmetric ensemble separates them turns out to be unattainable


def test_criterion_06_frames_agree_everywhere():
    rng = np.random.default_rng(2718)
    checked = 0
    for _ in range(1000):
        counts = tuple(int(c) for c in rng.integers(0, 200, size=4))
        if sum(counts) == 0:
            continue
        ens = AbortEnsemble(counts)
        m_a = horodecki_m(correlation_matrix(ens, Frame.AB_INITIO))[2]
        m_b = horodecki_m(correlation_matrix(ens, Frame.WEIGHTS))[2]
        assert abs(m_a - m_b) <= 1e-10, f"counts {counts}: {m_a} vs {m_b}"
        checked += 1
    assert checked > 900


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the two constructions are isospectral for every weight vector: "
        "their T matrices share trace, summed 2x2 minors and determinant "
        "of T^T T, so no ensemble -- however asymmetric in the last two "
        "weights -- can separate the functionals"
    ),
)
def test_criterion_06_asymmetric_ensemble_separates_frames():
    rng = np.random.default_rng(31415)
    best_gap = 0.0
    for _ in range(2000):
        w = rng.dirichlet(np.ones(4))
        if abs(w[2] - w[3]) < 0.05:
            continue  # only clearly asymmetric ensembles
        counts = tuple(int(round(x * 1e6)) for x in w)
        ens = AbortEnsemble(counts)
        m_a = horodecki_m(correlation_matrix(ens, Frame.AB_INITIO))[2]
        m_b = horodecki_m(correlation_matrix(ens, Frame.WEIGHTS))[2]
        best_gap = max(best_gap, abs(m_a - m_b))
    assert best_gap > 1e-6, f"largest frame gap found: {best_gap:.3e}"


# ---------------------------------------------------------------------------
# criterion 7: simulating the p = 0.8 family reproduces the closed form
# within 0.02


def test_criterion_07_family_simulation_matches_closed_form(family_run):
    report = security_decision(ensemble_from_aborts(family_run.declarations))
    _, _, m_exact = closed_form_family(0.8)
    assert abs(report.m_value - m_exact) <= 0.02
    assert report.secure


# ---------------------------------------------------------------------------
# criterion 8: a full intercept-resend tap shows up as a key error rate
# matching exact enumeration within three sigma, while the declared-abort
# statistic it is judged by stays numerically identical


def test_criterion_08_intercept_resend_footprint(intercept_pair, intercept_qber_oracle):
    clean, tapped, eve = intercept_pair

    expected = intercept_qber_oracle(eve)
    assert abs(expected - 0.25) <= 1e-12  # frozen enumeration result
    est = qber(tapped)
    assert abs(est.rate - expected) <= est.three_sigma
    assert est.rate > est.three_sigma  # unambiguously detectable
    assert qber(clean).rate == 0.0

    m_clean = horodecki_m(correlation_matrix(
        ensemble_from_aborts(clean.declarations), Frame.WEIGHTS))[2]
    m_tapped = horodecki_m(correlation_matrix(
        ensemble_from_aborts(tapped.declarations), Frame.WEIGHTS))[2]
    assert abs(m_clean - m_tapped) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 9: a parallel run writes byte-identical transcripts to a
# serial run of the same seed


def test_criterion_09_parallel_transcripts_byte_identical(tmp_path):
    kwargs = dict(n_rounds=2000, alice=AlicePolicy.uniform(), bob=BobPolicy(), seed=99)
    serial_path = tmp_path / "serial.qkdlog"
    threaded_path = tmp_path / "threaded.qkdlog"
    save_transcript(run_session(jobs=1, **kwargs), serial_path)
    save_transcript(run_session(jobs=4, **kwargs), threaded_path)
    assert serial_path.read_bytes() == threaded_path.read_bytes()


# ---------------------------------------------------------------------------
# criterion 10: the whole suite finishes within a minute


def test_criterion_10_suite_wall_clock_under_60s(suite_start):
    assert time.perf_counter() - suite_start < 60.0
