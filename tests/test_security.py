"""Correlation matrices, the violation functional and the closed-form family."""

import itertools
import re

import numpy as np
import pytest

from pathspin import (
    AbortEnsemble,
    Frame,
    StateLabel,
    closed_form_family,
    correlation_matrix,
    density_from_ensemble,
    ensemble_from_aborts,
    eta_rates,
    horodecki_m,
    is_violation,
    require_aborts,
    security_decision,
    violation_threshold,
)
from pathspin.errors import (
    DimensionError,
    DomainError,
    InsufficientDataError,
    InvalidDistributionError,
    InvalidStateError,
)
from pathspin.cli import REFERENCE_TABLE
from pathspin.optics import prepare
from pathspin.protocol import AlicePolicy
from pathspin.security import _PAULI_PAIRS, _PAULIS, _t_ab_initio

# frozen cross-check for the (0.4, 0.2, 0.2, 0.2) ensemble, derived in
# test_worked_example_matches_dense_solver with a dense eigensolver
WORKED_EXAMPLE_M = 0.5729822128134705

# (p, M, eta1, eta2) reference rows for the one-parameter family
FAMILY_TABLE = (
    (0.67, 1.01, 0.39, 0.11),
    (0.70, 1.08, 0.40, 0.10),
    (0.75, 1.20, 0.41, 0.08),
    (0.80, 1.34, 0.43, 0.06),
    (0.85, 1.49, 0.45, 0.05),
    (0.90, 1.64, 0.46, 0.03),
    (0.95, 1.81, 0.48, 0.01),
    (1.00, 2.00, 0.50, 0.00),
)


def _dense_m(t: np.ndarray) -> float:
    eigs = np.sort(np.linalg.eigvalsh(t.T @ t))
    return float(eigs[-1] + eigs[-2])


class TestEnsembles:
    def test_counts_from_label_list(self):
        labels = [StateLabel.PSI] * 4 + [StateLabel.PHI] * 2 + [StateLabel.PHI_PERP] * 2
        ens = ensemble_from_aborts(labels)
        assert ens.counts == (4, 0, 2, 2)
        assert ens.total == 8

    def test_counts_from_declarations(self):
        decls = [(0, StateLabel.PSI_PERP), (3, StateLabel.PSI_PERP), (9, StateLabel.PHI)]
        ens = ensemble_from_aborts(decls)
        assert ens.counts == (0, 2, 1, 0)

    def test_weights_normalize(self):
        ens = AbortEnsemble((4, 2, 2, 2))
        np.testing.assert_allclose(ens.weights(), (0.4, 0.2, 0.2, 0.2), atol=1e-15)

    @pytest.mark.parametrize("counts, message", [
        ((1, 2, 3), "expected 4 counts, got 3"),
        ((1, -1, 0, 0), "negative count in (1, -1, 0, 0)"),
    ])
    def test_counts_must_be_four_and_non_negative(self, counts, message):
        with pytest.raises(InvalidDistributionError) as err:
            AbortEnsemble(counts)
        assert str(err.value) == message

    def test_empty_ensemble_has_no_weights(self):
        with pytest.raises(InsufficientDataError):
            AbortEnsemble((0, 0, 0, 0)).weights()

    def test_density_is_positive_unit_trace(self):
        rho = density_from_ensemble(AbortEnsemble((4, 2, 2, 2)))
        np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_density_of_small_counts_is_exactly_hermitian_with_unit_trace(self):
        # why density_from_ensemble needs no check of its own: each term is a real weight
        # times v v^H, Hermitian to the bit, and the weights sum to 1 to a few ulps
        for counts in itertools.product(range(4), repeat=4):
            if sum(counts):
                rho = density_from_ensemble(AbortEnsemble(counts))
                assert np.array_equal(rho, rho.conj().T), counts
                assert abs(np.trace(rho).real - 1.0) <= 1e-12, counts

    def test_pure_ensemble_density_is_projector(self):
        rho = density_from_ensemble(AbortEnsemble((5, 0, 0, 0)))
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)


class TestCorrelationArray:
    def test_entries_bounded(self):
        ens = AbortEnsemble((7, 1, 3, 2))
        for t in (*(correlation_matrix(ens, frame) for frame in Frame),
                  correlation_matrix(density_from_ensemble(ens), Frame.AB_INITIO)):
            # a plain float array, in both frames and from a density input
            assert type(t) is np.ndarray and t.dtype == np.float64 and t.shape == (3, 3)
            assert np.max(np.abs(t)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("call, message", [
        (lambda: correlation_matrix(np.eye(2), Frame.AB_INITIO),
         "density operator must be 4x4, got (2, 2)"),
        (lambda: horodecki_m(np.eye(2)), "correlation matrix must be 3x3, got (2, 2)"),
    ], ids=["correlation_matrix-2x2", "horodecki_m-2x2"])
    def test_wrong_shape_is_a_dimension_error(self, call, message):
        with pytest.raises(DimensionError) as err:
            call()
        assert str(err.value) == message

    def test_closed_frame_needs_ensemble(self):
        rho = density_from_ensemble(AbortEnsemble((1, 1, 1, 1)))
        with pytest.raises(InvalidStateError):
            correlation_matrix(rho, Frame.WEIGHTS)

    def test_density_input_accepted_ab_initio(self):
        ens = AbortEnsemble((4, 2, 2, 2))
        via_density = correlation_matrix(density_from_ensemble(ens), Frame.AB_INITIO)
        via_ensemble = correlation_matrix(ens, Frame.AB_INITIO)
        np.testing.assert_allclose(via_density, via_ensemble, atol=1e-12)

    def test_frames_agree_on_symmetric_weights(self):
        ens = AbortEnsemble((6, 2, 1, 1))
        m_a = horodecki_m(correlation_matrix(ens, Frame.AB_INITIO))[2]
        m_b = horodecki_m(correlation_matrix(ens, Frame.WEIGHTS))[2]
        assert abs(m_a - m_b) < 1e-12

    def test_frames_agree_on_random_ensembles(self):
        # the two constructions give different matrices but always the
        # same singular spectrum, hence the same functional
        rng = np.random.default_rng(23)
        for _ in range(100):
            counts = tuple(int(c) for c in rng.integers(0, 50, size=4))
            if sum(counts) == 0:
                continue
            ens = AbortEnsemble(counts)
            m_a = horodecki_m(correlation_matrix(ens, Frame.AB_INITIO))[2]
            m_b = horodecki_m(correlation_matrix(ens, Frame.WEIGHTS))[2]
            assert abs(m_a - m_b) < 1e-10


class TestViolationFunctional:
    def test_worked_example_matches_dense_solver(self):
        ens = AbortEnsemble((4, 2, 2, 2))
        for frame in Frame:
            corr = correlation_matrix(ens, frame)
            lam, mu, m = horodecki_m(corr)
            assert lam >= mu
            np.testing.assert_allclose(m, lam + mu, atol=1e-15)
            np.testing.assert_allclose(m, _dense_m(corr), atol=1e-12)
            np.testing.assert_allclose(m, WORKED_EXAMPLE_M, atol=1e-12)

    def test_violation_requires_strictly_more_than_one(self):
        assert not is_violation(1.0)
        assert not is_violation(0.999999)
        assert is_violation(1.0 + 1e-9)

    def test_accepts_bare_matrix(self):
        lam, mu, m = horodecki_m(np.diag([0.8, 0.5, 0.1]))
        np.testing.assert_allclose((lam, mu, m), (0.64, 0.25, 0.89), atol=1e-12)


class TestClosedFormFamily:
    @pytest.mark.parametrize("p, m_ref, eta1_ref, eta2_ref", FAMILY_TABLE)
    def test_reference_rows(self, p, m_ref, eta1_ref, eta2_ref):
        lam, mu, m = closed_form_family(p)
        np.testing.assert_allclose(m, m_ref, atol=0.01)
        np.testing.assert_allclose(lam + mu, m, atol=1e-12)
        q = (1.0 - p) / 3.0
        np.testing.assert_allclose(0.5 * (p + q), eta1_ref, atol=0.01)
        np.testing.assert_allclose(0.5 * (q + q), eta2_ref, atol=0.01)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0 / 3.0, 0.66, 0.8, 1.0])
    def test_matches_matrix_construction(self, p):
        # closed form against the explicit correlation matrix at exactly
        # representable count ratios
        counts = (int(round(p * 3_000_000)),) + (int(round((1 - p) * 1_000_000)),) * 3
        ens = AbortEnsemble(counts)
        lam_m, mu_m, m_m = horodecki_m(correlation_matrix(ens, Frame.WEIGHTS))
        lam_c, mu_c, m_c = closed_form_family(sum(counts[:1]) / sum(counts))
        np.testing.assert_allclose((lam_c, mu_c, m_c), (lam_m, mu_m, m_m), atol=1e-9)

    def test_domain_is_unit_interval(self):
        with pytest.raises(DomainError):
            closed_form_family(-0.01)
        with pytest.raises(DomainError):
            closed_form_family(1.01)

    def test_endpoints(self):
        # uniform weights give M = 1/2; a pure ensemble gives the maximum 2
        np.testing.assert_allclose(closed_form_family(0.25)[2], 0.5, atol=1e-12)
        np.testing.assert_allclose(closed_form_family(1.0)[2], 2.0, atol=1e-12)

    def test_threshold_bracket_straddles_the_crossing(self):
        # why violation_threshold needs no bracket check: its ends are constants
        assert closed_form_family(1.0 / 3.0)[2] < 1.0 < closed_form_family(1.0)[2]

    def test_threshold_location(self):
        p_star = violation_threshold()
        assert p_star == 0.6655415449058637
        assert 0.66 < p_star <= 0.67
        np.testing.assert_allclose(closed_form_family(p_star)[2], 1.0, atol=1e-8)
        assert closed_form_family(p_star - 1e-6)[2] < 1.0
        assert closed_form_family(p_star + 1e-6)[2] > 1.0


class TestEtaRates:
    def test_worked_example_rates(self):
        ens = AbortEnsemble((4, 2, 2, 2))
        eta1, eta2 = eta_rates(ens)
        np.testing.assert_allclose((eta1, eta2), (0.3, 0.2), atol=1e-15)

    def test_family_rates(self):
        # family weights (p, q, q, q): eta1 = (p + q)/2, eta2 = q
        ens = AbortEnsemble((80, 20, 20, 20))
        eta1, eta2 = eta_rates(ens)
        p, q = 80 / 140, 20 / 140
        np.testing.assert_allclose((eta1, eta2), (0.5 * (p + q), q), atol=1e-15)

    @pytest.mark.parametrize("p", [0.0, 0.7, 0.9, 1.0])
    def test_weights_give_the_rates_of_their_ensemble(self, p):
        q = (1.0 - p) / 3.0
        weights = (p, q, q, q)
        assert eta_rates(weights) == (0.5 * (p + q), 0.5 * (q + q))
        ens = AbortEnsemble((round(3000 * p), round(1000 * (1 - p)),
                             round(1000 * (1 - p)), round(1000 * (1 - p))))
        assert eta_rates(ens) == eta_rates(ens.weights())

    def test_weights_must_be_four_and_a_distribution(self):
        with pytest.raises(DimensionError):
            eta_rates((0.5, 0.5))
        with pytest.raises(InvalidDistributionError):
            eta_rates((0.5, 0.5, 0.5, 0.5))


class TestDecision:
    def test_require_aborts_matches_security_decision(self):
        for counts, min_count in [((10, 5, 5, 5), 100), ((0, 0, 0, 0), 1), ((0, 0, 0, 0), 0),
                                  ((50, 50, 0, 0), 100), ((50, 50, 0, 0), 0)]:
            ens = AbortEnsemble(counts)
            try:
                security_decision(ens, min_count=min_count)
            except InsufficientDataError as exc:
                with pytest.raises(InsufficientDataError, match=re.escape(str(exc))):
                    require_aborts(ens, min_count)
            else:
                assert require_aborts(ens, min_count) is None

    def test_empty_ensemble_never_passes(self):
        with pytest.raises(InsufficientDataError, match="empty ensemble"):
            require_aborts(AbortEnsemble((0, 0, 0, 0)), 0)

    def test_insufficient_data_reports_requirement(self):
        ens = AbortEnsemble((10, 5, 5, 5))
        with pytest.raises(InsufficientDataError) as err:
            security_decision(ens, min_count=100)
        assert err.value.required == 100

    def test_insecure_uniform_counts(self):
        report = security_decision(AbortEnsemble((50, 50, 50, 50)), min_count=100)
        assert not report.secure
        np.testing.assert_allclose(report.m_value, 0.5, atol=1e-12)

    def test_secure_concentrated_counts(self):
        report = security_decision(AbortEnsemble((900, 33, 33, 34)), min_count=100)
        assert report.secure
        assert report.m_value > 1.0

    def test_frame_choice_recorded(self):
        for frame in Frame:
            report = security_decision(AbortEnsemble((900, 33, 33, 34)),
                                       frame=frame, min_count=10)
            assert report.frame is frame


class TestPlainMessages:
    def test_oversized_correlation_prints_a_plain_float(self):
        with pytest.raises(InvalidStateError) as err:
            correlation_matrix(np.diag([4.0, 0.0, 0.0, 0.0]), Frame.AB_INITIO)
        assert str(err.value) == "correlation entries exceed unit magnitude: 4.0"

    def test_tally_refuses_what_is_no_signal_label(self):
        with pytest.raises(ValueError, match="not a signal label: 'psi'"):
            ensemble_from_aborts([StateLabel.PSI, (1, "psi")])


class TestPauliPairs:
    """The ab-initio frame reads nine products built once; its T is the per-call one, bit for bit."""

    @staticmethod
    def _t_per_call_kron(rho):
        t = np.empty((3, 3))
        for i, si in enumerate(_PAULIS):
            for j, sj in enumerate(_PAULIS):
                t[i, j] = np.real(np.trace(rho @ np.kron(si, sj)))
        return t

    @staticmethod
    def _states():
        """The uniform ensemble, each reference family p, and 20 seeded random ensembles."""
        yield density_from_ensemble(AbortEnsemble((1, 1, 1, 1)))
        for p, *_ in REFERENCE_TABLE:
            yield sum(w * np.outer(prepare(label), prepare(label).conj())
                      for w, label in zip(AlicePolicy.family(p).weights, StateLabel))
        rng = np.random.default_rng(15)
        for _ in range(20):
            counts = tuple(int(c) for c in rng.integers(0, 1000, size=4))
            yield density_from_ensemble(AbortEnsemble(counts))

    def test_products_equal_a_per_call_kron_reference(self):
        for rho in self._states():
            assert np.array_equal(_t_ab_initio(rho), self._t_per_call_kron(rho))

    def test_products_are_read_only(self):
        assert len(_PAULI_PAIRS) == 9
        for op in _PAULI_PAIRS:
            assert not op.flags.writeable
            with pytest.raises(ValueError):
                op[0, 0] = 0.0
