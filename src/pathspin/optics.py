"""Signal states and the receiver's interferometric measurement chain.

A single particle carries two qubits: its spin and which interferometer
arm it travels (transmitted/reflected).  The composite Hilbert space is
ordered spin (x) path, so basis index = 2*spin + path:

    e0 = (spin 0, transmitted)   e1 = (spin 0, reflected)
    e2 = (spin 1, transmitted)   e3 = (spin 1, reflected)

The sender emits one of four path-spin entangled states forming two
conjugate groups.  The receiver recombines the arms on an output beam
splitter with a tunable phase ``phi`` (restricted to {0, pi/2} in
protocol use), optionally rotates the spin by a Hadamard when
phi = pi/2, and then measures the output port together with the spin in
either the sigma_z or the sigma_y eigenbasis.  Each distribution below runs
that chain; ``protocol.RECEIVED`` keeps the 16 rows that sessions sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import qmath
from .errors import InvalidStateError
from .qmath import Distribution

HALF_PI = math.pi / 2.0
_RT2 = math.sqrt(2.0)


class IdentityEnum(Enum):
    """An enum whose members hash by identity.

    Members are singletons and ``Enum`` compares them by identity, so
    ``object.__hash__`` agrees with ``==``.  ``Enum.__hash__`` hashes the
    member's name in Python code, a cost every dict or set lookup keyed by
    a member would pay once per round.
    """

    __hash__ = object.__hash__


class Group(IdentityEnum):
    """The two conjugate signal groups."""

    G1 = "g1"
    G2 = "g2"

    @property
    def labels(self) -> tuple["StateLabel", "StateLabel"]:
        if self is Group.G1:
            return (StateLabel.PSI, StateLabel.PSI_PERP)
        return (StateLabel.PHI, StateLabel.PHI_PERP)


class StateLabel(IdentityEnum):
    """The four signal states; each group holds an orthogonal pair."""

    PSI = "psi"
    PSI_PERP = "psi_perp"
    PHI = "phi"
    PHI_PERP = "phi_perp"

    @property
    def group(self) -> Group:
        return Group.G1 if self in (StateLabel.PSI, StateLabel.PSI_PERP) else Group.G2

    @property
    def bit(self) -> int:
        """Key bit encoded by the label (0 for the plain state, 1 for its perp)."""
        return 0 if self in (StateLabel.PSI, StateLabel.PHI) else 1


class SpinBasis(IdentityEnum):
    """Receiver spin bases: sigma_z eigenstates or sigma_y eigenstates."""

    Z = "z"
    Y = "y"


class Port(IdentityEnum):
    """Output ports of the recombining beam splitter."""

    TPRIME = "tprime"
    RPRIME = "rprime"


class SpinOutcome(IdentityEnum):
    """First or second vector of the chosen spin basis."""

    S0 = "s0"
    S1 = "s1"


class OutcomePair(NamedTuple):
    """Joint (port, spin) measurement outcome."""

    port: Port
    spin: SpinOutcome


#: Port-major outcome order used by every 4-entry distribution here.
OUTCOMES: tuple[OutcomePair, ...] = (
    OutcomePair(Port.TPRIME, SpinOutcome.S0),
    OutcomePair(Port.TPRIME, SpinOutcome.S1),
    OutcomePair(Port.RPRIME, SpinOutcome.S0),
    OutcomePair(Port.RPRIME, SpinOutcome.S1),
)

# single-qubit basis vectors
SPIN_0 = np.array([1.0, 0.0], dtype=complex)
SPIN_1 = np.array([0.0, 1.0], dtype=complex)
PATH_T = np.array([1.0, 0.0], dtype=complex)
PATH_R = np.array([0.0, 1.0], dtype=complex)
CHI_PLUS = (SPIN_1 - 1j * SPIN_0) / _RT2   # sigma_y eigenvalue +1
CHI_MINUS = (SPIN_1 + 1j * SPIN_0) / _RT2  # sigma_y eigenvalue -1

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / _RT2

#: Spin rotation preparing the second group from the first.  It carries the
#: sigma_y eigenbasis onto the sigma_z eigenbasis (chi_+ -> |0>, chi_- -> |1>),
#: which is exactly what swaps the roles of the two receiver settings between
#: the groups.
GROUP_GATE = np.array([[1j, 1.0], [-1j, 1.0]], dtype=complex) / _RT2


def _frozen(v: np.ndarray) -> np.ndarray:
    v.setflags(write=False)
    return v


_PSI = _frozen((qmath.tensor(SPIN_0, PATH_T) + 1j * qmath.tensor(SPIN_1, PATH_R)) / _RT2)
_PSI_PERP = _frozen((qmath.tensor(SPIN_0, PATH_T) - 1j * qmath.tensor(SPIN_1, PATH_R)) / _RT2)
_PHI = _frozen(qmath.lift_spin(GROUP_GATE) @ _PSI)
_PHI_PERP = _frozen(qmath.lift_spin(GROUP_GATE) @ _PSI_PERP)

_STATES = {
    StateLabel.PSI: _PSI,
    StateLabel.PSI_PERP: _PSI_PERP,
    StateLabel.PHI: _PHI,
    StateLabel.PHI_PERP: _PHI_PERP,
}


def prepare(label: StateLabel) -> np.ndarray:
    """Return the (read-only) 4-dim state vector for a signal label."""
    return _STATES[label]


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Source beam splitter with real amplitudes (alpha, beta)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not abs(self.alpha**2 + self.beta**2 - 1.0) <= 1e-12:
            raise InvalidStateError(
                f"beam splitter amplitudes must satisfy alpha^2 + beta^2 = 1, "
                f"got {self.alpha**2 + self.beta**2!r}"
            )


def source_state(bs: BeamSplitterSpec) -> np.ndarray:
    """State leaving the source: alpha (spin0, T) + i beta (spin1, R).

    A 50:50 splitter (alpha = beta = 1/sqrt(2)) emits the first signal
    state; other splitting ratios give partially entangled states whose
    Schmidt coefficients are (alpha, beta).
    """
    return bs.alpha * qmath.tensor(SPIN_0, PATH_T) + 1j * bs.beta * qmath.tensor(SPIN_1, PATH_R)


def _recombiner(phi: float) -> np.ndarray:
    """Path unitary of the phase shifter followed by the output splitter.

    Fixed end to end by the port correlations it must produce:
    |T> -> e^{i phi} (|T'> + i |R'>)/sqrt(2),  |R> -> (|T'> - i |R'>)/sqrt(2).
    After this map the computational path basis indexes the output ports.
    """
    ph = np.exp(1j * phi)
    v = np.array([[ph, 1.0], [1j * ph, -1j]], dtype=complex) / _RT2
    return qmath.lift_path(v)


def bob_transform(state: np.ndarray, phi: float) -> np.ndarray:
    """Propagate a 4-dim state through the receiver interferometer."""
    return qmath.apply(_recombiner(float(phi)), qmath.as_state(state, 4))


def hadamard_stage(state: np.ndarray, phi: float) -> np.ndarray:
    """Spin Hadamard applied only for the phi = pi/2 setting."""
    state = qmath.as_state(state, 4)
    if phi == 0.0:
        return state
    if abs(phi - HALF_PI) < 1e-12:
        return qmath.lift_spin(HADAMARD) @ state
    raise InvalidStateError(f"hadamard stage is defined for phi in {{0, pi/2}}, got {phi!r}")


def spin_basis_vectors(basis: SpinBasis) -> tuple[np.ndarray, np.ndarray]:
    if basis is SpinBasis.Z:
        return SPIN_0, SPIN_1
    return CHI_PLUS, CHI_MINUS


def _projectors(basis: SpinBasis) -> tuple[np.ndarray, ...]:
    out = []
    for port_vec in (PATH_T, PATH_R):
        for spin_vec in spin_basis_vectors(basis):
            joint = np.kron(spin_vec, port_vec)
            out.append(_frozen(np.outer(joint, joint.conj())))
    return tuple(out)


_PROJECTORS = {basis: _projectors(basis) for basis in SpinBasis}


def measure_distribution(state: np.ndarray, basis: SpinBasis) -> np.ndarray:
    """Probabilities of the four (port, spin) outcomes, in OUTCOMES order.

    Expects a state already propagated through ``bob_transform`` (and
    ``hadamard_stage``), so the path component indexes output ports.
    """
    return qmath.born(state, _PROJECTORS[basis])


def path_observable(phi: float) -> np.ndarray:
    """Dichotomic path observable of the interferometer, in the (T, R) basis.

    Hermitian with eigenvalues +/-1; the +1 eigenvector is the input-side
    superposition (|T> + i e^{i phi} |R>)/sqrt(2) that exits through the
    T' port.
    """
    return np.array(
        [[0.0, -1j * np.exp(-1j * phi)], [1j * np.exp(1j * phi), 0.0]], dtype=complex
    )


# ---------------------------------------------------------------------------
# receiver outcome distributions: each call runs the chain above


def receiver_distribution(state: np.ndarray, phi: float, basis: SpinBasis) -> Distribution:
    """Outcome distribution of the full receiver chain on any state, signal state or not."""
    return Distribution(measure_distribution(hadamard_stage(bob_transform(state, phi), phi), basis))


def pipeline_distribution(label: StateLabel, phi: float, basis: SpinBasis) -> Distribution:
    """Outcome distribution of a signal state under one receiver setting."""
    return receiver_distribution(prepare(label), phi, basis)


def outcome_support(label: StateLabel, phi: float, basis: SpinBasis) -> frozenset[OutcomePair]:
    """Outcomes with non-negligible probability under a receiver setting."""
    return frozenset(o for o, p in zip(OUTCOMES, pipeline_distribution(label, phi, basis)) if p > 1e-9)
