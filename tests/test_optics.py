"""Signal states, the receiver chain and projective outcome statistics."""

import math

import numpy as np
import pytest

from pathspin import qmath
from pathspin.errors import InvalidStateError
from pathspin.optics import (
    GROUP_GATE,
    HALF_PI,
    OUTCOMES,
    BeamSplitterSpec,
    Group,
    OutcomePair,
    Port,
    SpinBasis,
    SpinOutcome,
    StateLabel,
    bob_transform,
    hadamard_stage,
    measure_distribution,
    outcome_support,
    path_observable,
    pipeline_distribution,
    prepare,
    receiver_distribution,
    source_state,
)

RT2 = 1.0 / math.sqrt(2.0)

KEEP_ROW_A = (0.5, 0.0, 0.0, 0.5)   # support {(t', s0), (r', s1)}
KEEP_ROW_B = (0.0, 0.5, 0.5, 0.0)   # support {(t', s1), (r', s0)}
ABORT_ROW = (0.25, 0.25, 0.25, 0.25)

# every (state, phase, basis) row of the outcome table; derived in
# test_full_outcome_table from the measurement chain itself
EXPECTED_TABLE = {
    (StateLabel.PSI, 0.0, SpinBasis.Z): ABORT_ROW,
    (StateLabel.PSI, 0.0, SpinBasis.Y): KEEP_ROW_A,
    (StateLabel.PSI, HALF_PI, SpinBasis.Z): KEEP_ROW_A,
    (StateLabel.PSI, HALF_PI, SpinBasis.Y): ABORT_ROW,
    (StateLabel.PSI_PERP, 0.0, SpinBasis.Z): ABORT_ROW,
    (StateLabel.PSI_PERP, 0.0, SpinBasis.Y): KEEP_ROW_B,
    (StateLabel.PSI_PERP, HALF_PI, SpinBasis.Z): KEEP_ROW_B,
    (StateLabel.PSI_PERP, HALF_PI, SpinBasis.Y): ABORT_ROW,
    (StateLabel.PHI, 0.0, SpinBasis.Z): KEEP_ROW_A,
    (StateLabel.PHI, 0.0, SpinBasis.Y): ABORT_ROW,
    (StateLabel.PHI, HALF_PI, SpinBasis.Z): ABORT_ROW,
    (StateLabel.PHI, HALF_PI, SpinBasis.Y): KEEP_ROW_A,
    (StateLabel.PHI_PERP, 0.0, SpinBasis.Z): KEEP_ROW_B,
    (StateLabel.PHI_PERP, 0.0, SpinBasis.Y): ABORT_ROW,
    (StateLabel.PHI_PERP, HALF_PI, SpinBasis.Z): ABORT_ROW,
    (StateLabel.PHI_PERP, HALF_PI, SpinBasis.Y): KEEP_ROW_B,
}


class TestSignalStates:
    @pytest.mark.parametrize("label", list(StateLabel))
    def test_normalized_and_read_only(self, label):
        v = prepare(label)
        np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-12)
        with pytest.raises(ValueError):
            v[0] = 0.0

    def test_group_membership_and_bits(self):
        assert StateLabel.PSI.group is Group.G1
        assert StateLabel.PSI_PERP.group is Group.G1
        assert StateLabel.PHI.group is Group.G2
        assert StateLabel.PHI_PERP.group is Group.G2
        assert StateLabel.PSI.bit == 0 and StateLabel.PHI.bit == 0
        assert StateLabel.PSI_PERP.bit == 1 and StateLabel.PHI_PERP.bit == 1

    def test_orthogonal_within_group(self):
        for a, b in ((StateLabel.PSI, StateLabel.PSI_PERP),
                     (StateLabel.PHI, StateLabel.PHI_PERP)):
            assert abs(np.vdot(prepare(a), prepare(b))) < 1e-12

    @pytest.mark.parametrize("a", [StateLabel.PSI, StateLabel.PSI_PERP])
    @pytest.mark.parametrize("b", [StateLabel.PHI, StateLabel.PHI_PERP])
    def test_cross_group_overlap_is_one_quarter(self, a, b):
        # |<a|b>|^2 = 1/4 for every cross-group pair: the second group is
        # the image of the first under the spin-side gate below
        overlap = abs(np.vdot(prepare(a), prepare(b))) ** 2
        np.testing.assert_allclose(overlap, 0.25, atol=1e-12)

    def test_second_group_is_spin_gate_image_of_first(self):
        gate = qmath.lift_spin(GROUP_GATE)
        np.testing.assert_allclose(gate @ prepare(StateLabel.PSI),
                                   prepare(StateLabel.PHI), atol=1e-12)
        np.testing.assert_allclose(gate @ prepare(StateLabel.PSI_PERP),
                                   prepare(StateLabel.PHI_PERP), atol=1e-12)

    def test_psi_is_balanced_spin_path_superposition(self):
        np.testing.assert_allclose(prepare(StateLabel.PSI),
                                   [RT2, 0.0, 0.0, 1j * RT2], atol=1e-12)


class TestSource:
    def test_balanced_splitter_emits_first_signal_state(self):
        v = source_state(BeamSplitterSpec(RT2, RT2))
        np.testing.assert_allclose(v, prepare(StateLabel.PSI), atol=1e-12)

    def test_unbalanced_splitter_schmidt_weights(self):
        # reduced spin state of alpha|s0,T> + i beta|s1,R> has eigenvalues
        # (alpha^2, beta^2)
        v = source_state(BeamSplitterSpec(0.8, 0.6))
        rho = np.outer(v, v.conj()).reshape(2, 2, 2, 2)
        rho_spin = np.trace(rho, axis1=1, axis2=3)
        eigs = np.sort(np.linalg.eigvalsh(rho_spin))[::-1]
        np.testing.assert_allclose(eigs, [0.64, 0.36], atol=1e-12)

    def test_amplitudes_must_be_normalized(self):
        with pytest.raises(InvalidStateError):
            BeamSplitterSpec(0.9, 0.6)


class TestReceiverChain:
    @pytest.mark.parametrize("phi", [0.0, HALF_PI])
    def test_transform_is_unitary_on_signals(self, phi):
        for label in StateLabel:
            out = bob_transform(prepare(label), phi)
            np.testing.assert_allclose(np.linalg.norm(out), 1.0, atol=1e-12)

    def test_hadamard_stage_identity_at_zero_phase(self):
        v = prepare(StateLabel.PSI)
        np.testing.assert_allclose(hadamard_stage(v, 0.0), v, atol=0.0)

    def test_hadamard_stage_acts_on_spin_at_half_pi(self):
        v = qmath.tensor([1.0, 0.0], [1.0, 0.0])
        out = hadamard_stage(v, HALF_PI)
        np.testing.assert_allclose(out, qmath.tensor([RT2, RT2], [1.0, 0.0]), atol=1e-12)

    def test_hadamard_stage_rejects_other_phases(self):
        with pytest.raises(InvalidStateError):
            hadamard_stage(prepare(StateLabel.PSI), 0.3)
        with pytest.raises(InvalidStateError):
            outcome_support(StateLabel.PSI, 0.3, SpinBasis.Z)

    @pytest.mark.parametrize("phi", [0.0, HALF_PI, 1.234])
    def test_path_observable_structure(self, phi):
        obs = path_observable(phi)
        np.testing.assert_allclose(obs, obs.conj().T, atol=1e-15)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(obs)), [-1.0, 1.0], atol=1e-12)
        plus = np.array([1.0, 1j * np.exp(1j * phi)]) * RT2
        np.testing.assert_allclose(obs @ plus, plus, atol=1e-12)

    @pytest.mark.parametrize("basis", list(SpinBasis))
    # pi/2 + 5e-13 is within the Hadamard stage's 1e-12 of pi/2 but is not pi/2 itself
    @pytest.mark.parametrize("phi", [0.0, HALF_PI, HALF_PI + 5e-13])
    def test_receiver_distribution_runs_the_chain(self, phi, basis):
        # an unequal splitter emits no signal state; a signal state gives its label's row
        state = source_state(BeamSplitterSpec(0.8, 0.6))
        got = receiver_distribution(state, phi, basis)
        chain = measure_distribution(hadamard_stage(bob_transform(state, phi), phi), basis)
        assert isinstance(got, qmath.Distribution)
        assert got == tuple(chain.tolist())
        for label in StateLabel:
            assert receiver_distribution(prepare(label), phi, basis) == \
                pipeline_distribution(label, phi, basis)


class TestOutcomeStatistics:
    def test_outcome_order_is_port_major(self):
        assert OUTCOMES[0] == OutcomePair(Port.TPRIME, SpinOutcome.S0)
        assert OUTCOMES[1] == OutcomePair(Port.TPRIME, SpinOutcome.S1)
        assert OUTCOMES[2] == OutcomePair(Port.RPRIME, SpinOutcome.S0)
        assert OUTCOMES[3] == OutcomePair(Port.RPRIME, SpinOutcome.S1)

    def test_full_outcome_table(self):
        for (label, phi, basis), expected in EXPECTED_TABLE.items():
            got = pipeline_distribution(label, phi, basis)
            np.testing.assert_allclose(got, expected, atol=1e-12,
                                       err_msg=f"{label} phi={phi} basis={basis}")

    def test_support_sizes(self):
        for (label, phi, basis), expected in EXPECTED_TABLE.items():
            support = outcome_support(label, phi, basis)
            assert len(support) == (2 if max(expected) == 0.5 else 4)

    def test_same_group_supports_partition_outcomes(self):
        # under a matched setting the two group members light up disjoint
        # outcome pairs covering all four detectors
        for group, phi, basis in ((Group.G1, 0.0, SpinBasis.Y),
                                  (Group.G1, HALF_PI, SpinBasis.Z),
                                  (Group.G2, 0.0, SpinBasis.Z),
                                  (Group.G2, HALF_PI, SpinBasis.Y)):
            a, b = group.labels
            sa = outcome_support(a, phi, basis)
            sb = outcome_support(b, phi, basis)
            assert sa & sb == frozenset()
            assert sa | sb == frozenset(OUTCOMES)

    def test_measure_distribution_normalized(self):
        for label in StateLabel:
            out = bob_transform(prepare(label), 0.0)
            probs = measure_distribution(out, SpinBasis.Y)
            np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)
