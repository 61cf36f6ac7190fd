"""Linear-algebra helpers, the 3x3 eigensolver and the deterministic RNG."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from pathspin import optics, qmath
from pathspin.errors import (
    DimensionError,
    InvalidDistributionError,
    InvalidMatrixError,
    InvalidMeasurementError,
    InvalidStateError,
)
from pathspin.protocol import AlicePolicy

RT2 = 1.0 / math.sqrt(2.0)


class TestStates:
    def test_as_state_accepts_unit_vectors(self):
        v = qmath.as_state([RT2, 1j * RT2])
        assert v.dtype == complex
        np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-12)

    def test_as_state_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            qmath.as_state([1.0, 1.0])

    def test_as_state_rejects_matrix(self):
        with pytest.raises(DimensionError):
            qmath.as_state(np.eye(2))

    def test_as_state_checks_requested_dimension(self):
        with pytest.raises(DimensionError):
            qmath.as_state([1.0, 0.0], dim=4)

    def test_tensor_basis_order_first_factor_slow(self):
        # (0,1) (x) (1,0) must land on index 2 = 1*2 + 0
        out = qmath.tensor([0.0, 1.0], [1.0, 0.0])
        np.testing.assert_allclose(out, [0, 0, 1, 0], atol=1e-15)

    def test_tensor_rejects_unnormalized_factor(self):
        with pytest.raises(InvalidStateError):
            qmath.tensor([2.0, 0.0], [1.0, 0.0])


class TestOperators:
    def test_apply_preserves_norm(self):
        h = np.array([[1, 1], [1, -1]]) * RT2
        out = qmath.apply(h, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [RT2, RT2], atol=1e-15)

    def test_apply_rejects_non_unitary(self):
        with pytest.raises(InvalidMatrixError):
            qmath.apply(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 0.0]))

    def test_apply_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            qmath.apply(np.eye(2), np.array([1.0, 0.0, 0.0, 0.0]))

    def test_lift_spin_acts_on_first_factor(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        spin0_path1 = qmath.tensor([1, 0], [0, 1])
        out = qmath.lift_spin(x) @ spin0_path1
        np.testing.assert_allclose(out, qmath.tensor([0, 1], [0, 1]), atol=1e-15)

    def test_lift_path_acts_on_second_factor(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        spin1_path0 = qmath.tensor([0, 1], [1, 0])
        out = qmath.lift_path(x) @ spin1_path0
        np.testing.assert_allclose(out, qmath.tensor([0, 1], [0, 1]), atol=1e-15)

    def test_lift_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            qmath.lift_spin(np.eye(4))


class TestBorn:
    def _z_projectors(self):
        return [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]

    def test_probabilities_of_plus_state(self):
        probs = qmath.born(np.array([RT2, RT2]), self._z_projectors())
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_rejects_non_hermitian_projector(self):
        bad = [np.array([[1.0, 1.0], [0.0, 0.0]]), np.diag([0.0, 1.0])]
        with pytest.raises(InvalidMeasurementError):
            qmath.born(np.array([1.0, 0.0]), bad)

    def test_rejects_non_idempotent_projector(self):
        bad = [np.diag([0.5, 0.0]), np.diag([0.5, 1.0])]
        with pytest.raises(InvalidMeasurementError):
            qmath.born(np.array([1.0, 0.0]), bad)

    def test_rejects_incomplete_family(self):
        with pytest.raises(InvalidMeasurementError):
            qmath.born(np.array([1.0, 0.0]), [np.diag([1.0, 0.0])])

    def test_orthogonal_outcome_probability_is_nonnegative_zero(self):
        # rounding may drive |<minus|plus>|^2 a hair below zero; the clamp
        # must return an exact nonnegative value
        plus = np.array([RT2, RT2])
        minus = np.array([RT2, -RT2])
        probs = qmath.born(plus, [np.outer(plus, plus), np.outer(minus, minus)])
        assert probs[1] >= 0.0
        assert probs[1] <= 1e-14
        np.testing.assert_allclose(probs[0], 1.0, atol=1e-12)


class TestSym3Eigs:
    def test_diagonal_matrix_is_exact(self):
        eigs = qmath.sym3_eigs(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(eigs, [3.0, 2.0, -1.0], atol=0.0)

    def test_matches_dense_solver_on_random_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.normal(size=(3, 3))
            sym = (a + a.T) / 2.0
            got = qmath.sym3_eigs(sym)
            want = np.linalg.eigvalsh(sym)[::-1]
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_handles_degenerate_spectrum(self):
        got = qmath.sym3_eigs(np.eye(3) * 0.25)
        np.testing.assert_allclose(got, [0.25, 0.25, 0.25], atol=1e-12)

    def test_near_degenerate_gram_matrix(self):
        t = np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 1e-9], [0.0, 1e-9, 0.5]])
        got = qmath.sym3_eigs(t)
        want = np.linalg.eigvalsh(t)[::-1]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(InvalidMatrixError):
            qmath.sym3_eigs(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))

    def test_descending_order(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 3))
        eigs = qmath.sym3_eigs((a + a.T) / 2.0)
        assert eigs[0] >= eigs[1] >= eigs[2]


class TestRng:
    def test_same_coordinates_same_value(self):
        a, _ = qmath.Rng(seed=1, stream=5, counter=9).next_uniform()
        b, _ = qmath.Rng(seed=1, stream=5, counter=9).next_uniform()
        assert a == b

    def test_draw_returns_successor_not_mutation(self):
        rng = qmath.Rng(seed=3)
        _, nxt = rng.next_uniform()
        assert rng.counter == 0 and nxt.counter == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            rng.counter = 7

    def test_streams_are_distinct(self):
        draws = {qmath.Rng(seed=42, stream=s).next_uniform()[0] for s in range(64)}
        assert len(draws) == 64

    def test_uniform_range_and_moments(self):
        rng = qmath.Rng(seed=123)
        values = []
        for _ in range(10_000):
            u, rng = rng.next_uniform()
            values.append(u)
        values = np.asarray(values)
        assert np.all((values >= 0.0) & (values < 1.0))
        assert abs(values.mean() - 0.5) < 0.02
        assert abs(values.var() - 1.0 / 12.0) < 0.01

    def test_sample_matches_weights(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        weights = (0.5, 0.25, 0.25)
        counts = [0, 0, 0]
        rng = qmath.Rng(seed=9)
        n = 20_000
        for _ in range(n):
            idx, rng = rng.sample(weights)
            counts[idx] += 1
        expected = [w * n for w in weights]
        _, pvalue = scipy_stats.chisquare(counts, expected)
        assert pvalue > 1e-3

    def test_sample_advances_one_draw(self):
        rng = qmath.Rng(seed=4)
        _, nxt = rng.sample([0.5, 0.5])
        assert nxt.counter == rng.counter + 1

    def test_sample_rejects_bad_weights(self):
        rng = qmath.Rng(seed=0)
        with pytest.raises(InvalidDistributionError):
            rng.sample([0.5, -0.5, 1.0])
        with pytest.raises(InvalidDistributionError):
            rng.sample([0.3, 0.3])
        with pytest.raises(InvalidDistributionError):
            rng.sample([])
        with pytest.raises(InvalidDistributionError):
            rng.sample([float("nan"), 0.0, 1.0])
        with pytest.raises(InvalidDistributionError):
            rng.sample([[0.5, 0.5]])
        with pytest.raises(InvalidDistributionError):
            rng.sample([float("inf"), 0.0])

    def test_checked_distribution_draws_like_plain_weights(self):
        family = AlicePolicy.family(0.7).weights
        q = (1.0 - 0.7) / 3.0
        assert isinstance(family, qmath.Distribution)
        assert family == (0.7, q, q, q)
        rows = [row.distribution for row in optics._TABLE.values()]
        for w in [family, (0.5, 0.5)] + rows:
            checked = qmath.Distribution(w)
            for stream in range(200):
                rng = qmath.Rng(seed=5, stream=stream)
                assert rng.sample(checked) == rng.sample(list(w))

    def test_successor_draws_like_a_fresh_generator(self):
        # the root mixed once per generator must give the draws of the
        # three-mix formula, from any (seed, stream, counter)
        mask = (1 << 64) - 1

        def reference_uniform(seed, stream, counter):
            root = qmath._mix64(
                (qmath._mix64(seed & mask) ^ (stream & mask) * 0xD1B54A32D192ED03) & mask
            )
            word = qmath._mix64((root + (counter + 1) * 0x9E3779B97F4A7C15) & mask)
            return (word >> 11) * 2.0**-53

        seeds = [0, 1, 7, -1, -(2**63), 2**63, 2**64, 2**64 + 5, 3**50]
        streams = list(range(40)) + [2**32 + 1, 2**63, 2**64 - 1, 2**64, 5**40, -3]
        for seed in seeds:
            for stream in streams:
                rng = qmath.Rng(seed, stream)
                for counter in range(4):
                    u, nxt = rng.next_uniform()
                    fresh = qmath.Rng(seed, stream, counter + 1)
                    assert u == reference_uniform(seed, stream, counter)
                    assert nxt == fresh and hash(nxt) == hash(fresh)
                    assert nxt.next_uniform() == fresh.next_uniform()
                    assert nxt.sample((0.2, 0.3, 0.5)) == fresh.sample((0.2, 0.3, 0.5))
                    rng = nxt

    def test_streams_equal_fresh_generators(self):
        seeds = [0, 1, 7, -1, -(2**63), 2**63, 2**64, 2**64 + 5, 3**50, 5**40]
        for seed in seeds:
            streams = qmath.Rng.streams(seed, 40)
            assert inspect.isgenerator(streams)
            for stream, rng in enumerate(streams):
                fresh = qmath.Rng(seed, stream)
                assert rng == fresh and rng._root == fresh._root
                assert vars(rng) == vars(fresh)
                assert rng.next_uniform() == fresh.next_uniform()
            assert stream == 39
        assert list(qmath.Rng.streams(3, 0)) == []

    def test_generator_stays_a_frozen_three_field_value(self):
        rng = qmath.Rng(seed=5, stream=3)
        _, nxt = rng.next_uniform()
        assert repr(nxt) == "Rng(seed=5, stream=3, counter=1)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            nxt.counter = 0
        jumped = dataclasses.replace(nxt, counter=9)
        assert jumped == qmath.Rng(5, 3, 9)
        assert jumped.next_uniform() == qmath.Rng(5, 3, 9).next_uniform()

    def test_sample_boundary_weights(self):
        rng = qmath.Rng(seed=17)
        for _ in range(50):
            idx, rng = rng.sample([0.0, 1.0, 0.0])
            assert idx == 1
