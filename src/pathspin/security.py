"""Security analysis of the declared-abort ensemble.

The labels revealed for aborted rounds estimate the source distribution
(p1, p2, p3, p4) over the four signal states.  From the corresponding
mixed state the 3x3 spin-path correlation matrix T is formed and the
Horodecki parameter M = sum of the two largest eigenvalues of T^T T is
computed.  M > 1 gives the verdict SECURE and M <= 1 INSECURE.  The
verdict reads only the declared labels, which an intercept-resend tap
leaves untouched (see ``adversary``): M certifies the source mix, not
the channel.  A tap shows only as key mismatches on kept rounds (the
summary's QBER line), which the verdict does not read yet.

Two routes to T are provided: ``Frame.AB_INITIO`` takes Pauli
expectation values of the reconstructed density operator, while
``Frame.WEIGHTS`` assembles the entries directly as linear expressions
in the ensemble weights.  The two differ entrywise but share a singular
spectrum, so M never depends on the choice.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from . import qmath
from .errors import (
    DimensionError,
    DomainError,
    InsufficientDataError,
    InvalidDistributionError,
    InvalidStateError,
)
from .optics import StateLabel, prepare

DEFAULT_MIN_ABORTS = 100

_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

#: The nine products sigma_i (x) sigma_j, row-major in (i, j), built once and read-only.
_PAULI_PAIRS = np.array([np.kron(si, sj) for si in _PAULIS for sj in _PAULIS])
_PAULI_PAIRS.flags.writeable = False


class Frame(Enum):
    """How the correlation matrix is obtained from the ensemble."""

    AB_INITIO = "abinitio"
    WEIGHTS = "weights"


@dataclass(frozen=True)
class AbortEnsemble:
    """Counts of declared labels over aborted rounds, in StateLabel order."""

    counts: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        try:
            c = tuple(operator.index(x) for x in self.counts)
        except TypeError:
            raise InvalidDistributionError(f"counts must be integers, got {self.counts!r}") from None
        if len(c) != 4:
            raise InvalidDistributionError(f"expected 4 counts, got {len(c)}")
        if any(x < 0 for x in c):
            raise InvalidDistributionError(f"negative count in {c}")
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def weights(self) -> tuple[float, float, float, float]:
        if self.total == 0:
            raise InsufficientDataError("cannot normalize an empty ensemble", required=1)
        t = float(self.total)
        return tuple(c / t for c in self.counts)


def ensemble_from_aborts(labels: Iterable[StateLabel]) -> AbortEnsemble:
    """Tally declared labels (labels or (round_index, label) pairs; anything else raises)."""
    tally = Counter(item[1] if isinstance(item, tuple) else item for item in labels)
    counts = tuple(tally.pop(label, 0) for label in StateLabel)
    if tally:
        raise ValueError(f"not a signal label: {next(iter(tally))!r}")
    return AbortEnsemble(counts)


def density_from_ensemble(ensemble: AbortEnsemble) -> np.ndarray:
    """Mixed state sum_i p_i |s_i><s_i| over the four signal states."""
    rho = np.zeros((4, 4), dtype=complex)
    for w, label in zip(ensemble.weights(), StateLabel):
        v = prepare(label)
        rho += w * np.outer(v, v.conj())
    # Hermitian exactly, as each real-weighted outer product is; trace 1 to a few ulps
    return rho


def _t_ab_initio(rho: np.ndarray) -> np.ndarray:
    t = np.array([np.real(np.trace(rho @ op)) for op in _PAULI_PAIRS], dtype=float)
    return t.reshape(3, 3)


def _t_from_weights(weights: Sequence[float]) -> np.ndarray:
    p1, p2, p3, p4 = weights
    return np.array(
        [
            [p1 - p2, -(p3 - p4), 0.0],
            [0.0, p1 - p2, p3 - p4],
            [p3 + p4, 0.0, -(p1 + p2)],
        ]
    )


def correlation_matrix(source: AbortEnsemble | np.ndarray, frame: Frame) -> np.ndarray:
    """The real 3x3 T of an ensemble (either frame) or a density matrix (ab initio).

    The weight frame is defined in terms of the ensemble weights, so it
    rejects a bare density operator.
    """
    if frame is Frame.WEIGHTS:
        if not isinstance(source, AbortEnsemble):
            raise InvalidStateError("the weight frame requires an AbortEnsemble")
        t = _t_from_weights(source.weights())
    else:
        rho = density_from_ensemble(source) if isinstance(source, AbortEnsemble) else np.asarray(source, dtype=complex)
        if rho.shape != (4, 4):
            raise DimensionError(f"density operator must be 4x4, got {rho.shape}")
        if not np.isfinite(rho).all():
            raise InvalidStateError("density operator has a non-finite entry")
        t = _t_ab_initio(rho)
    if not np.max(np.abs(t)) <= 1.0 + 1e-12:
        raise InvalidStateError(f"correlation entries exceed unit magnitude: {float(np.max(np.abs(t)))!r}")
    return t


def horodecki_m(corr: np.ndarray) -> tuple[float, float, float]:
    """(largest, second, sum) of the top two eigenvalues of T^T T.

    A T with a NaN or infinite entry raises ``InvalidStateError``."""
    t = np.asarray(corr, dtype=float)
    if t.shape != (3, 3):
        raise DimensionError(f"correlation matrix must be 3x3, got {t.shape}")
    if not np.isfinite(t).all():
        raise InvalidStateError("correlation matrix has a non-finite entry")
    e1, e2, _ = qmath.sym3_eigs(t.T @ t)
    return e1, e2, e1 + e2


def is_violation(m_value: float) -> bool:
    """Security requires a strict violation M > 1."""
    return m_value > 1.0


def closed_form_family(p: float) -> tuple[float, float, float]:
    """Closed-form (largest, second, M) for the one-parameter family (p, q, q, q).

    The two branch expressions are the top eigenvalues of T^T T
    everywhere on [0, 1]; they are returned sorted descending, matching
    ``horodecki_m``, and their sum equals M.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"family parameter must lie in [0, 1], got {p!r}")
    a = (16.0 * p * p - 8.0 * p + 1.0) / 9.0
    root = np.sqrt(20.0 * p**4 - 44.0 * p**3 + 30.0 * p**2 - 8.0 * p + 2.0)
    b = (4.0 * p * p - 2.0 * p + 1.0) / 3.0 + 2.0 * root / 9.0
    m = (28.0 * p * p - 14.0 * p + 4.0) / 9.0 + 2.0 * root / 9.0
    return max(float(a), float(b)), min(float(a), float(b)), float(m)


def violation_threshold() -> float:
    """Family parameter where M crosses 1, bisected to 1e-10 on [1/3, 1].

    The bracket straddles the crossing: M(1/3) is about 0.52 and M(1) = 2.
    """
    lo, hi = 1.0 / 3.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if closed_form_family(mid)[2] - 1.0 <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def eta_rates(source: AbortEnsemble | Sequence[float]) -> tuple[float, float]:
    """Failure rates of the two groups: half their total source weight.

    ``source`` is an ensemble or four source weights.  A group's states
    meet the unmatched phase setting half the time, so
    eta1 = (p1 + p2)/2 and eta2 = (p3 + p4)/2.
    """
    w = source.weights() if isinstance(source, AbortEnsemble) else qmath.Distribution(source)
    if len(w) != 4:
        raise DimensionError(f"expected 4 weights, got {len(w)}")
    p1, p2, p3, p4 = w
    return 0.5 * (p1 + p2), 0.5 * (p3 + p4)


@dataclass(frozen=True)
class SecurityReport:
    lam: float
    mu: float
    m_value: float
    secure: bool
    eta1: float
    eta2: float
    frame: Frame


def require_aborts(ensemble: AbortEnsemble, min_count: int = DEFAULT_MIN_ABORTS) -> None:
    """Raise ``InsufficientDataError`` unless ``ensemble`` can carry a verdict.

    That takes at least ``min_count`` declared aborts, and weights, which
    an empty ensemble does not have.
    """
    if ensemble.total < min_count:
        raise InsufficientDataError(
            f"only {ensemble.total} declared aborts, need at least {min_count}",
            required=min_count,
        )
    ensemble.weights()  # raises for an empty ensemble


def security_decision(
    ensemble: AbortEnsemble,
    frame: Frame = Frame.WEIGHTS,
    min_count: int = DEFAULT_MIN_ABORTS,
) -> SecurityReport:
    """Issue a security verdict from the declared-abort ensemble."""
    require_aborts(ensemble, min_count)
    lam, mu, m = horodecki_m(correlation_matrix(ensemble, frame))
    eta1, eta2 = eta_rates(ensemble)
    return SecurityReport(
        lam=lam,
        mu=mu,
        m_value=m,
        secure=is_violation(m),
        eta1=eta1,
        eta2=eta2,
        frame=frame,
    )
