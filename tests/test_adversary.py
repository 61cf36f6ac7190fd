"""Intercept-resend attack behavior and its observable footprint."""

import numpy as np
import pytest

from pathspin import (
    AlicePolicy,
    BobPolicy,
    Frame,
    InterceptResend,
    PhaseChoice,
    Rng,
    SpinBasis,
    StateLabel,
    Transcript,
    correlation_matrix,
    decode_bit,
    ensemble_from_aborts,
    horodecki_m,
    prepare,
    qber,
    replay_session,
    run_session,
)
from pathspin import protocol
from pathspin.errors import ConfigError, InsufficientDataError, InvalidDistributionError
from pathspin.optics import OUTCOMES, outcome_support, pipeline_distribution
from pathspin.qmath import Distribution


class TestConstruction:
    def test_fraction_bounds(self):
        InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, fraction=0.0)
        InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, fraction=1.0)
        with pytest.raises(InvalidDistributionError):
            InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, fraction=1.5)
        with pytest.raises(InvalidDistributionError):
            InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, fraction=-0.1)

    def test_config_round_trip(self):
        eve = InterceptResend(PhaseChoice.PHI_HALF_PI, SpinBasis.Z, fraction=0.25)
        again = InterceptResend.from_config(eve.to_config())
        assert again == eve

    def test_config_type_tag_checked(self):
        with pytest.raises(ConfigError):
            InterceptResend.from_config({"type": "other"})


class TestInference:
    @pytest.mark.parametrize("eve", [
        InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y),
        InterceptResend(PhaseChoice.PHI_HALF_PI, SpinBasis.Z),
        InterceptResend(PhaseChoice.PHI_0, SpinBasis.Z),
        InterceptResend(PhaseChoice.PHI_HALF_PI, SpinBasis.Y),
    ])
    def test_guessed_group_outcomes_map_back(self, eve):
        # every outcome in a guessed-group member's support is inferred
        # as exactly that member
        for label in protocol.KEEP_GROUP[eve.phi, eve.basis].labels:
            for outcome in outcome_support(label, eve.phi.radians, eve.basis):
                assert eve.infer_label(outcome) is label

    @pytest.mark.parametrize("phi", list(PhaseChoice))
    @pytest.mark.parametrize("basis", list(SpinBasis))
    def test_inference_table_equals_the_support_scan(self, phi, basis):
        # the first guessed-group label, in label order, whose support holds the outcome;
        # its bit is the one Bob decodes at the same setting
        eve, group = InterceptResend(phi, basis), protocol.KEEP_GROUP[phi, basis]
        for outcome in OUTCOMES:
            scan = [label for label in group.labels
                    if outcome in outcome_support(label, phi.radians, basis)]
            assert eve.infer_label(outcome) is scan[0]
            assert decode_bit(group, phi, basis, outcome) == eve.infer_label(outcome).bit

    def test_tap_table_equals_the_receiver_rows(self, monkeypatch):
        # the four settings by the four labels: the row she samples is Bob's row of
        # protocol.RECEIVED, that very object, and it is the row she would compute
        draw, sampled = Rng.sample, []
        monkeypatch.setattr(Rng, "sample",
                            lambda rng, weights: sampled.append(weights) or draw(rng, weights))
        for phi_idx, phi in enumerate(PhaseChoice):
            for basis_idx, basis in enumerate(SpinBasis):
                for label in StateLabel:
                    sampled.clear()
                    InterceptResend(phi, basis).tap(label, Rng(seed=0))
                    (row,) = sampled
                    assert row is protocol.RECEIVED[label][phi_idx][basis_idx]
                    want = pipeline_distribution(label, phi.radians, basis)
                    assert isinstance(row, Distribution)
                    assert row == want and row.prefix == want.prefix

    @pytest.mark.parametrize("phi", list(PhaseChoice))
    @pytest.mark.parametrize("basis", list(SpinBasis))
    def test_tap_samples_its_settings_row(self, phi, basis):
        # an intercept is one sample of the row and one inference from its outcome
        eve = InterceptResend(phi, basis)
        for stream in range(64):
            rng = Rng(seed=8, stream=stream)
            for label in StateLabel:
                idx, want_rng = rng.sample(pipeline_distribution(label, phi.radians, basis))
                resent, got_rng = eve.tap(label, rng)
                assert resent is eve.infer_label(OUTCOMES[idx])
                assert (got_rng.seed, got_rng.stream, got_rng.counter, got_rng._tape) == \
                    (want_rng.seed, want_rng.stream, want_rng.counter, want_rng._tape)

    def test_outcome_outside_every_support_is_refused(self):
        eve = InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y)
        with pytest.raises(InvalidDistributionError, match="outside every support"):
            eve.infer_label(("t", "s0"))

    def test_matched_group_resend_is_transparent(self):
        # her setting resolves the sent group perfectly, so the resent
        # state is the sent state and the round is undisturbed
        eve = InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y)
        rng = Rng(seed=1)
        for label in (StateLabel.PSI, StateLabel.PSI_PERP):
            resent, rng = eve.tap(label, rng)
            assert resent is label

    def test_mismatched_group_resend_overlap_one_quarter(self):
        # wrong-group interception forwards a cross-group state whose
        # overlap-squared with the sent one is exactly 1/4
        eve = InterceptResend(PhaseChoice.PHI_0, SpinBasis.Z)  # guesses the other group
        rng = Rng(seed=2)
        for _ in range(20):
            resent, rng = eve.tap(StateLabel.PSI, rng)
            overlap = abs(np.vdot(prepare(StateLabel.PSI), prepare(resent))) ** 2
            np.testing.assert_allclose(overlap, 0.25, atol=1e-12)

    def test_zero_fraction_never_touches_the_state(self):
        eve = InterceptResend(PhaseChoice.PHI_0, SpinBasis.Z, fraction=0.0)
        rng = Rng(seed=3)
        out, rng2 = eve.tap(StateLabel.PSI, rng)
        assert out is StateLabel.PSI
        assert rng2.counter == rng.counter + 1  # the pass/intercept coin


class TestFootprint:
    def test_honest_sessions_have_no_errors(self, intercept_pair):
        clean, _, _ = intercept_pair
        assert qber(clean).rate == 0.0

    def test_full_tap_error_rate_matches_enumeration(self, intercept_pair,
                                                     intercept_qber_oracle):
        _, tapped, eve = intercept_pair
        expected = intercept_qber_oracle(eve)
        np.testing.assert_allclose(expected, 0.25, atol=1e-12)
        est = qber(tapped)
        assert est.mismatches > 0
        assert abs(est.rate - expected) < est.three_sigma

    def test_every_setting_leaves_the_same_footprint(self, intercept_qber_oracle):
        rates = {
            (phi, basis): intercept_qber_oracle(InterceptResend(phi, basis))
            for phi in PhaseChoice for basis in SpinBasis
        }
        np.testing.assert_allclose(list(rates.values()), 0.25, atol=1e-12)

    def test_partial_tap_scales_linearly(self, intercept_qber_oracle):
        eve = InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, fraction=0.5)
        session = run_session(n_rounds=20_000, alice=AlicePolicy.uniform(),
                              bob=BobPolicy(), eve=eve, seed=404)
        est = qber(session)
        expected = 0.5 * intercept_qber_oracle(InterceptResend(eve.phi, eve.basis))
        assert abs(est.rate - expected) < est.three_sigma

    def test_declared_aborts_are_blind_to_the_tap(self, intercept_pair):
        clean, tapped, _ = intercept_pair
        assert clean.declarations == tapped.declarations
        m_clean = horodecki_m(correlation_matrix(
            ensemble_from_aborts(clean.declarations), Frame.WEIGHTS))[2]
        m_tapped = horodecki_m(correlation_matrix(
            ensemble_from_aborts(tapped.declarations), Frame.WEIGHTS))[2]
        assert abs(m_clean - m_tapped) <= 1e-12

    def test_qber_requires_kept_rounds(self):
        empty = Transcript(seed=0, config={}, kinds=b"")
        with pytest.raises(InsufficientDataError):
            qber(empty)


class TestReplayWithAdversary:
    def test_replay_builds_the_headers_adversary(self):
        eve = InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y)
        session = run_session(n_rounds=40, alice=AlicePolicy.uniform(),
                              bob=BobPolicy(), eve=eve, seed=11)
        assert replay_session(session) == session

    def test_replay_with_factory_reproduces(self):
        eve = InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, fraction=0.5)
        session = run_session(n_rounds=40, alice=AlicePolicy.uniform(),
                              bob=BobPolicy(), eve=eve, seed=11)
        again = replay_session(session)
        assert again.rounds == session.rounds
