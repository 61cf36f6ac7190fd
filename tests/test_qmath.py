"""Linear-algebra helpers, the 3x3 eigensolver and the deterministic RNG."""

import copy
import dataclasses
import inspect
import math
import pickle
import tracemalloc
from bisect import bisect_right
from collections import deque

import numpy as np
import pytest

from pathspin import optics, protocol, qmath, security
from pathspin.errors import (
    DimensionError,
    InvalidDistributionError,
    InvalidMatrixError,
    InvalidMeasurementError,
    InvalidStateError,
)
from pathspin.protocol import AlicePolicy

RT2 = 1.0 / math.sqrt(2.0)
NAN = float("nan")
MASK = (1 << 64) - 1
#: The receiver's outcome rows, one per (signal state, phase, basis), as sessions sample them.
RECEIVER_ROWS = [dist for by_phi in protocol.RECEIVED.values() for row in by_phi for dist in row]


def reference_uniform(seed, stream, counter):
    """Draw ``counter + 1`` of (seed, stream) by the three-mix formula, every mix in Python."""
    root = qmath._mix64(
        (qmath._mix64(seed & MASK) ^ (stream & MASK) * 0xD1B54A32D192ED03) & MASK
    )
    word = qmath._mix64((root + (counter + 1) * 0x9E3779B97F4A7C15) & MASK)
    return (word >> 11) * 2.0**-53


def fields(rng):
    """A generator's four fields, its tape included."""
    return rng.seed, rng.stream, rng.counter, rng._tape


def reference_pick(weights, u):
    """The index an accumulate-and-compare loop picks for the draw ``u``."""
    acc = 0.0
    for i, w in enumerate(weights[:-1]):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


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

    @pytest.mark.parametrize("call, message", [
        (lambda: qmath.lift_path(np.eye(3)), "path operator must be 2x2, got (3, 3)"),
        (lambda: qmath.apply(np.ones((2, 3)), np.array([1.0, 0.0, 0.0])),
         "operator must be square, got shape (2, 3)"),
        (lambda: qmath.sym3_eigs(np.eye(2)), "expected a 3x3 matrix, got (2, 2)"),
        (lambda: qmath.born(np.array([1.0, 0.0]), [np.eye(3)]),
         "projector 0 has shape (3, 3), expected (2, 2)"),
    ], ids=["lift_path-3x3", "apply-2x3", "sym3_eigs-2x2", "born-3x3-projector"])
    def test_wrong_shape_is_a_dimension_error(self, call, message):
        with pytest.raises(DimensionError) as err:
            call()
        assert str(err.value) == message

    @pytest.mark.parametrize("call, error, message", [
        (lambda: qmath.as_state([NAN, NAN]), InvalidStateError,
         "state is not normalized (|v| = nan)"),
        (lambda: qmath.apply(np.full((2, 2), NAN), np.array([1.0, 0.0])), InvalidMatrixError,
         "operator is not unitary (deviation nan)"),
        (lambda: optics.bob_transform(optics.prepare(optics.StateLabel.PSI), NAN),
         InvalidMatrixError, "operator is not unitary (deviation nan)"),
        (lambda: qmath.sym3_eigs(np.full((3, 3), NAN)), InvalidMatrixError,
         "matrix is not symmetric (deviation nan)"),
        (lambda: security.horodecki_m(np.full((3, 3), NAN)), InvalidMatrixError,
         "matrix is not symmetric (deviation nan)"),
        (lambda: security.correlation_matrix(np.full((4, 4), NAN), security.Frame.AB_INITIO),
         InvalidStateError, "density operator has a non-finite entry"),
        (lambda: security.correlation_matrix(np.diag([math.inf, 0, 0, 0]),
                                             security.Frame.AB_INITIO),
         InvalidStateError, "density operator has a non-finite entry"),
        (lambda: security.AbortEnsemble((1.5, 1, 1, 1)), InvalidDistributionError,
         "counts must be integers, got (1.5, 1, 1, 1)"),
        (lambda: security.AbortEnsemble((NAN, 1, 1, 1)), InvalidDistributionError,
         "counts must be integers, got (nan, 1, 1, 1)"),
        (lambda: optics.BeamSplitterSpec(NAN, 0.0), InvalidStateError,
         "beam splitter amplitudes must satisfy alpha^2 + beta^2 = 1, got nan"),
    ], ids=["as_state-nan", "apply-nan", "bob_transform-nan-phi",
            "sym3_eigs-nan", "horodecki_m-nan", "correlation_matrix-nan",
            "correlation_matrix-inf", "ensemble-1.5",
            "ensemble-nan", "beam-splitter-nan"])
    def test_non_finite_or_fractional_input_is_refused(self, call, error, message):
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message


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

    @pytest.mark.parametrize("low, message", [
        (-1e-11, "negative probability -1.000e-11"),
        (0.0, "probabilities sum to 1.00000000001"),
    ], ids=["negative", "sum-above-one"])
    def test_probabilities_past_rounding_are_refused(self, low, message):
        # a family within 1e-10 of a projective measurement, off by 1e-11 in the outcomes
        family = [np.diag([1.0 + 1e-11, 0.0]), np.diag([low, 1.0])]
        with pytest.raises(InvalidMeasurementError) as err:
            qmath.born(np.array([1.0, 0.0]), family)
        assert str(err.value) == message

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

    def test_draw_returns_a_position_not_a_mutation(self):
        rng = qmath.Rng(seed=3)
        _, k = rng.next_uniform()
        _, k2 = rng.sample((0.5, 0.5), k)
        assert type(k) is int and type(k2) is int and (k, k2) == (1, 2)
        assert rng == qmath.Rng(seed=3) and rng.counter == 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rng.counter = 7

    def test_streams_are_distinct(self):
        draws = {qmath.Rng(seed=42, stream=s).next_uniform()[0] for s in range(64)}
        assert len(draws) == 64

    def test_uniform_range_and_moments(self):
        rng, k = qmath.Rng(seed=123), 0
        values = []
        for _ in range(10_000):
            u, k = rng.next_uniform(k)
            values.append(u)
        values = np.asarray(values)
        assert np.all((values >= 0.0) & (values < 1.0))
        assert abs(values.mean() - 0.5) < 0.02
        assert abs(values.var() - 1.0 / 12.0) < 0.01

    def test_sample_matches_weights(self):
        weights = (0.5, 0.25, 0.25)
        counts = [0, 0, 0]
        rng, k = qmath.Rng(seed=9), 0
        n = 20_000
        for _ in range(n):
            idx, k = rng.sample(weights, k)
            counts[idx] += 1
        expected = [w * n for w in weights]
        chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
        # the chi-square survival function at 2 degrees of freedom is exp(-chi2 / 2)
        assert math.exp(-chi2 / 2) > 1e-3

    def test_sample_advances_one_draw(self):
        rng = qmath.Rng(seed=4, counter=2)
        for k in (-3, 0, 1, qmath.TAPE, 2**64):
            assert rng.sample([0.5, 0.5], k)[1] == k + 1

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
        for w in [family, (0.5, 0.5)] + RECEIVER_ROWS:
            checked = qmath.Distribution(w)
            for stream in range(200):
                rng = qmath.Rng(seed=5, stream=stream)
                assert rng.sample(checked) == rng.sample(list(w))

    def test_next_position_draws_like_a_fresh_generator(self):
        # the root mixed once per generator must give the draws of the
        # three-mix formula, from any (seed, stream, counter); position k of a
        # generator draws what a fresh one at counter k draws first
        seeds = [0, 1, 7, -1, -(2**63), 2**63, 2**64, 2**64 + 5, 3**50]
        streams = list(range(40)) + [2**32 + 1, 2**63, 2**64 - 1, 2**64, 5**40, -3]
        for seed in seeds:
            for stream in streams:
                rng = qmath.Rng(seed, stream)
                for k in range(4):
                    u, nxt = rng.next_uniform(k)
                    fresh = qmath.Rng(seed, stream, k + 1)
                    assert u == reference_uniform(seed, stream, k)
                    assert nxt == k + 1
                    assert rng.next_uniform(nxt)[0] == fresh.next_uniform()[0]
                    assert rng.sample((0.2, 0.3, 0.5), nxt)[0] == fresh.sample((0.2, 0.3, 0.5))[0]

    def test_streams_equal_fresh_generators(self):
        seeds = [0, 1, 7, -1, -(2**63), 2**63, 2**64, 2**64 + 5, 3**50, 5**40]
        for seed in seeds:
            streams = qmath.Rng.streams(seed, 40)
            assert inspect.isgenerator(streams)
            for stream, rng in enumerate(streams):
                fresh = qmath.Rng(seed, stream)
                assert rng == fresh
                assert fields(rng) == fields(fresh)
                assert rng.next_uniform() == fresh.next_uniform()
            assert stream == 39
        assert list(qmath.Rng.streams(3, 0)) == []

    @pytest.mark.parametrize("seed", [0, 7, -1, 2**64 + 5, 3**50])
    def test_batched_streams_are_bit_exact(self, seed):
        # batches of 1024 streams are mixed in numpy uint64; every generator must
        # equal the scalar one, tape included, and draw the three-mix values,
        # past the end of its tape too, wherever the batches split the run
        assert qmath.STREAM_BATCH == 1024 and qmath.TAPE < 9
        sizes = (1, 1023, 1024, 1025, 4097, 8195)
        expected = [(fields(qmath.Rng(seed, stream)),
                     [reference_uniform(seed, stream, counter) for counter in range(9)])
                    for stream in range(max(sizes))]
        for n in sizes:
            streams = list(qmath.Rng.streams(seed, n))
            assert len(streams) == n
            for rng, (want_fields, draws) in zip(streams, expected):
                assert fields(rng) == want_fields
                assert [rng.next_uniform(k)[0] for k in range(len(draws))] == draws

    def test_streams_hold_one_batch_at_a_time(self):
        # a batch's roots, tapes and arrays are dropped before the next batch is built,
        # so three batches peak no higher than one
        def peak(n):
            tracemalloc.start()
            try:
                deque(qmath.Rng.streams(7, n), maxlen=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(qmath.STREAM_BATCH)
        assert peak(3 * qmath.STREAM_BATCH) < 1.3 * one

    def test_sample_draws_what_next_uniform_draws_past_the_tape(self):
        weights = qmath.Distribution((0.2, 0.3, 0.5))
        for stream in range(50):
            rng = qmath.Rng(11, stream)
            for k in range(qmath.TAPE + 3):
                u, after = rng.next_uniform(k)
                idx, nxt = rng.sample(weights, k)
                assert nxt == after == k + 1
                assert idx == (0 if u < 0.2 else 1 if u < 0.2 + 0.3 else 2)

    def test_generator_stays_a_frozen_three_field_value(self):
        rng = qmath.Rng(seed=5, stream=3)
        one = qmath.Rng(seed=5, stream=3, counter=1)
        assert one.next_uniform() == (rng.next_uniform(1)[0], 1)
        assert one == qmath.Rng(5, 3, 1)  # a draw leaves it as it was
        assert repr(one) == "Rng(seed=5, stream=3, counter=1)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            one.counter = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            one._tape = (0.5,) * qmath.TAPE
        with pytest.raises(dataclasses.FrozenInstanceError):
            one.other = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del one.counter
        assert fields(one) == (5, 3, 1, rng._tape)
        jumped = qmath.Rng(one.seed, one.stream, 9)
        assert fields(jumped) == fields(qmath.Rng(5, 3, 9))
        assert jumped.next_uniform() == qmath.Rng(5, 3, 9).next_uniform()

    @pytest.mark.parametrize("make", [lambda: qmath.Rng(5, 3, 1),
                                      lambda: qmath.Rng(7, 2**64 + 5, 9),
                                      lambda: list(qmath.Rng.streams(13, 6))[5]],
                             ids=["Rng(5,3,1)", "Rng(7,2**64+5,9)", "streams(13)[5]"])
    def test_a_copy_is_an_equal_generator_that_draws_the_same(self, make):
        rng = make()
        pickled = [pickle.loads(pickle.dumps(rng, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in (copy.copy(rng), copy.deepcopy(rng), *pickled):
            assert type(again) is qmath.Rng
            assert again == rng and fields(again) == fields(rng)
            for k in range(-2, qmath.TAPE + 2):
                assert again.sample((0.2, 0.3, 0.5), k) == rng.sample((0.2, 0.3, 0.5), k)
                assert again.next_uniform(k) == rng.next_uniform(k)
            assert fields(again) == fields(rng)

    def test_draws_before_and_past_the_tape_are_mixed_whole(self):
        # only counters 0..TAPE-1 read the tape; a negative one must not index it from the end
        weights = qmath.Distribution((0.2, 0.3, 0.5))
        for seed in (0, 7, -1, 2**64 + 5):
            for stream in (0, 3, 2**64 - 1, -3):
                for counter in (-3, -1, qmath.TAPE - 1, qmath.TAPE, qmath.TAPE + 4):
                    rng = qmath.Rng(seed, stream, counter)
                    want = reference_uniform(seed, stream, counter)
                    u, nxt = rng.next_uniform()
                    idx, after = rng.sample(weights)
                    assert u == want
                    assert idx == reference_pick(weights, want)
                    assert nxt == after == 1
                    # the same draw at position ``counter`` of the stream's counter-0 generator
                    at_zero = qmath.Rng(seed, stream)
                    assert at_zero.next_uniform(counter) == (want, counter + 1)
                    assert at_zero.sample(weights, counter) == (idx, counter + 1)

    def test_sample_boundary_weights(self):
        rng, k = qmath.Rng(seed=17), 0
        for _ in range(50):
            idx, k = rng.sample([0.0, 1.0, 0.0], k)
            assert idx == 1


class TestPrefixSums:
    DISTRIBUTIONS = (
        RECEIVER_ROWS
        + [protocol._HALF]
        + [AlicePolicy.family(p).weights for p in (0.0, 0.6655, 0.7, 0.9, 1.0)]
        + [qmath.Distribution(w) for w in ((0.0, 1.0, 0.0), (0.5, 0.0, 0.5, 0.0))]
    )

    def test_the_table_covers_every_receiver_row(self):
        assert len(RECEIVER_ROWS) == 16 and len(self.DISTRIBUTIONS) == 24

    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=str)
    def test_prefix_is_the_running_float_sum(self, dist):
        acc, sums = 0.0, []
        for w in dist[:-1]:
            acc += w
            sums.append(acc)
        assert dist.prefix == tuple(sums)
        assert all(type(x) is float for x in dist.prefix)

    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=str)
    def test_bisect_picks_what_the_loop_picks(self, dist):
        # every draw of 2000 streams' tapes, and each running sum with its float neighbours;
        # ``sample`` is given each one as its next draw through a generator's tape
        draws = [u for rng in qmath.Rng.streams(29, 2000) for u in rng._tape]
        edges = [v for x in dist.prefix for v in (math.nextafter(x, 0.0), x, math.nextafter(x, 1.0))]
        for u in draws + edges + [0.0, math.nextafter(1.0, 0.0)]:
            want = reference_pick(dist, u)
            assert bisect_right(dist.prefix, u) == want, u
            rng = tuple.__new__(qmath.Rng, (0, 0, 0, (u,) * qmath.TAPE))
            assert rng.sample(dist)[0] == want, u

    def test_a_distribution_is_immutable(self):
        dist = qmath.Distribution((0.25, 0.75))
        with pytest.raises(AttributeError):
            dist.prefix = (0.0,)
        with pytest.raises(AttributeError):
            dist.other = 1
        with pytest.raises(AttributeError):
            del dist.prefix
        assert dist.prefix == (0.25,) and vars(dist) == {"prefix": (0.25,)}

    def test_a_copy_keeps_its_weights_and_prefix(self):
        dist = AlicePolicy.family(0.7).weights
        pickled = [pickle.loads(pickle.dumps(dist, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in (copy.copy(dist), copy.deepcopy(dist), *pickled):
            assert type(again) is qmath.Distribution
            assert again == dist and again.prefix == dist.prefix


class TestMessagesPrintPlainFloats:
    @pytest.mark.parametrize("build, message", [
        (lambda: qmath.as_state([2.0, 0.0]), "state is not normalized (|v| = 2.0)"),
        (lambda: qmath.Distribution(np.array([0.5, 0.5, 0.5])), "weights sum to 1.5, expected 1"),
        (lambda: qmath.Distribution(np.array([-0.5, 1.5])), "negative weight in [-0.5, 1.5]"),
    ])
    def test_no_numpy_scalar_repr(self, build, message):
        with pytest.raises((InvalidStateError, InvalidDistributionError)) as err:
            build()
        assert str(err.value) == message
