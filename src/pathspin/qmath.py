"""Small dense linear-algebra and sampling kernel.

Everything here is physics-agnostic: complex vectors of dimension 2 and 4, the lifts
of 2x2 operators into their product space (applied with a plain ``@``), symmetric 3x3
eigenvalues, checked finite distributions, and a counter-based random generator whose
draws depend only on (seed, stream, counter) so that independently generated streams
can be evaluated in any order, on any platform, with identical results.

Each tolerance check is written ``not deviation <= tol``, so that a NaN
deviation, from a NaN or infinite input, fails it as a large one does.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import FrozenInstanceError
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionError, InvalidDistributionError, InvalidStateError

NORM_ATOL = 1e-12


def as_state(v: Sequence[complex] | np.ndarray, dim: int | None = None) -> np.ndarray:
    """Coerce to a complex 1-D unit vector, validating norm to 1e-12."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1:
        raise DimensionError(f"state must be a 1-D vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionError(f"expected dimension {dim}, got {arr.shape[0]}")
    nrm = np.linalg.norm(arr)
    if not abs(nrm - 1.0) <= NORM_ATOL:
        raise InvalidStateError(f"state is not normalized (|v| = {float(nrm)!r})")
    return arr


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two normalized vectors (first factor is the slow index)."""
    return np.kron(as_state(a), as_state(b))


def lift_spin(u: np.ndarray) -> np.ndarray:
    """Embed a 2x2 spin operator into the 4-dim spin (x) path space."""
    return np.kron(u, np.eye(2, dtype=complex))


def lift_path(u: np.ndarray) -> np.ndarray:
    """Embed a 2x2 path operator into the 4-dim spin (x) path space."""
    return np.kron(np.eye(2, dtype=complex), u)


# ---------------------------------------------------------------------------
# symmetric 3x3 eigenvalues


def sym3_eigs(m: np.ndarray) -> tuple[float, float, float]:
    """Eigenvalues of a real symmetric 3x3 array, sorted descending, unchecked.

    The only caller, ``security.horodecki_m``, passes T^T T, symmetric as it is
    built.  LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``) reads
    its lower triangle.
    """
    e3, e2, e1 = np.linalg.eigvalsh(m).tolist()
    return e1, e2, e3


# ---------------------------------------------------------------------------
# finite distributions and counter-based sampling


class Distribution(tuple):
    """An immutable finite probability distribution, as a tuple of floats.

    Built only from a non-empty 1-D sequence with no negative entry whose
    sum is within 1e-9 of one; anything else raises
    ``InvalidDistributionError``.  The check runs once, here, so a
    ``Distribution`` can be sampled any number of times without another.

    ``prefix`` holds the running sums of every weight but the last, added
    left to right in Python floats, also computed once here.  ``Rng.sample``
    picks ``bisect_right(prefix, u)`` for its draw ``u``: the first index whose
    running sum exceeds ``u``, or the last index if none does.  Setting or
    deleting any attribute raises ``AttributeError``.
    """

    prefix: tuple[float, ...]

    def __new__(cls, weights: Sequence[float] | np.ndarray) -> "Distribution":
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidDistributionError("weights must be a non-empty 1-D sequence")
        if np.any(w < 0.0):
            raise InvalidDistributionError(f"negative weight in {w.tolist()}")
        # phrased so that a NaN weight, and hence a NaN sum, fails it
        if not abs(w.sum() - 1.0) <= 1e-9:
            raise InvalidDistributionError(f"weights sum to {float(w.sum())!r}, expected 1")
        dist = super().__new__(cls, w.tolist())
        dist.__dict__["prefix"] = tuple(accumulate(dist[:-1]))
        return dist

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Distribution is immutable, cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Distribution is immutable, cannot delete {name!r}")


_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03
#: Draws held on a generator's tape: counters 1..6, the most one protocol
#: round makes (the longest row of ``protocol.DRAWS``).
TAPE = 6
#: Streams whose tapes ``Rng.streams`` computes in one numpy batch.
STREAM_BATCH = 1024


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _uniform(seed: int, stream: int, counter: int) -> float:
    """Draw ``counter`` of stream ``stream`` of ``seed``, in [0, 1): 53 bits of three mixes,
    of the seed, of the stream's root from it and of the root plus ``counter`` golden steps."""
    root = _mix64((_mix64(seed & _MASK) ^ (stream & _MASK) * _STREAM_SALT) & _MASK)
    return (_mix64((root + counter * _GOLDEN) & _MASK) >> 11) * 2.0**-53


# ``_mix64`` and ``_uniform`` over uint64 arrays, which wrap mod 2**64
# as the ``& _MASK`` above does.  Every operand is uint64: numpy 1.x turns a
# uint64/int64 mix into float64.
_U64 = np.uint64
_TAPE_STEPS = np.arange(1, TAPE + 1, dtype=np.uint64) * _U64(_GOLDEN)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _batch(mixed_seed: int, start: int, stop: int) -> Iterator[tuple[float, ...]]:
    """The tapes of streams ``start .. stop-1``, one tuple of ``TAPE`` floats per stream.

    The batch is mixed in numpy at once and turned into one Python list per tape position,
    zipped into the tapes.  The arrays are freed on return and the lists with the zip, so
    a caller that drops one batch before it builds the next holds one batch only."""
    with np.errstate(over="ignore"):
        streams = np.arange(start, stop, dtype=np.uint64)
        roots = _mix64_array(_U64(mixed_seed) ^ streams * _U64(_STREAM_SALT))
        words = _mix64_array(roots + _TAPE_STEPS[:, None])  # one row per tape position
        tapes = (words >> _U64(11)).astype(np.float64) * 2.0**-53
    return zip(*tapes.tolist())


class Rng(tuple):
    """Counter-based deterministic generator, the tuple value ``(seed, stream, counter, tape)``.

    Draw ``k`` of stream ``stream`` is ``_uniform(seed, stream, k)``, a function of those three
    alone, so rounds, one stream each, can be drawn in any order.  ``tape`` holds the stream's
    draws 1..``TAPE``: a draw on it is read, any other is mixed when it is made.  ``Rng(seed,
    stream, counter)`` mixes its tape with ``_uniform``; ``streams`` mixes a run of tapes in
    numpy, to equal values.  ``next_uniform(k)`` and ``sample(weights, k)`` return draw ``counter
    + k + 1`` with the next position, ``k + 1``; nothing is built or mutated.  The fields read
    as attributes (``_tape`` the tape), and setting or deleting one raises
    ``FrozenInstanceError``.  Equality, hash and order are the tuple's.
    """

    __slots__ = ()

    seed = property(itemgetter(0))
    stream = property(itemgetter(1))
    counter = property(itemgetter(2))
    _tape = property(itemgetter(3))

    def __new__(cls, seed: int, stream: int = 0, counter: int = 0) -> "Rng":
        tape = tuple(_uniform(seed, stream, k) for k in range(1, TAPE + 1))
        return tuple.__new__(cls, (seed, stream, counter, tape))

    def __getnewargs__(self) -> tuple[int, int, int]:
        return self[:3]  # pickle and copy rebuild the tape

    def __repr__(self) -> str:
        return f"Rng(seed={self[0]!r}, stream={self[1]!r}, counter={self[2]!r})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @classmethod
    def streams(cls, seed: int, n: int) -> Iterator["Rng"]:
        """Yield ``Rng(seed, i)`` for ``i`` in ``0 .. n-1``, mixing ``seed`` once.

        The tapes of ``STREAM_BATCH`` streams at a time come from ``_batch``, and a
        batch is dropped before the next is built."""
        mixed = _mix64(seed & _MASK)
        for start in range(0, n, STREAM_BATCH):
            stop = min(start + STREAM_BATCH, n)
            yield from map(tuple.__new__, repeat(cls), zip(
                repeat(seed), range(start, stop), repeat(0), _batch(mixed, start, stop)))

    def next_uniform(self, k: int = 0) -> tuple[float, int]:
        """Draw u in [0, 1) with 53 random bits, at position ``k``."""
        seed, stream, counter, tape = self
        j = counter + k
        return (tape[j] if 0 <= j < TAPE else _uniform(seed, stream, j + 1)), k + 1

    def sample(self, weights: Sequence[float], k: int = 0) -> tuple[int, int]:
        """Draw an index from the finite distribution ``weights``, as ``next_uniform(k)`` draws.

        A ``Distribution`` is used as it is; any other sequence is checked by building one on
        every call, since a list or array can change between calls, so invalid weights raise
        ``InvalidDistributionError`` before anything is drawn.  The index is ``bisect_right``
        of the draw in the ``prefix``: the first index whose running sum exceeds it.
        """
        w = weights if isinstance(weights, Distribution) else Distribution(weights)
        # the draw of ``next_uniform``, inline: a round's draws are mostly samples
        seed, stream, counter, tape = self
        j = counter + k
        u = tape[j] if 0 <= j < TAPE else _uniform(seed, stream, j + 1)
        return bisect_right(w.prefix, u), k + 1
