"""Intercept-resend adversary and disturbance statistics.

The modeled attacker owns a copy of the receiver apparatus: she fixes a
phase setting and a spin basis, measures every tapped particle through
that chain, infers the most likely signal label from her outcome
(uniform prior over labels, ties resolved toward the lower label index)
and forwards a fresh preparation of the inferred label.

When her setting matches the sent group she identifies the state
perfectly and resends it unchanged; when it does not, her outcome is
uniform noise and she forwards a state from the wrong group, which shows
up as key errors on kept rounds.  The declared-abort statistics -- and
therefore the correlation-matrix check -- are blind to her, because the
labels the sender declares are untouched by what travels the channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, InsufficientDataError, InvalidDistributionError, json_choice,
                     json_number)
from .optics import (
    OUTCOMES,
    OutcomePair,
    SpinBasis,
    StateLabel,
    outcome_support,
    prepare,
    receiver_distribution,
)
from .protocol import PhaseChoice, Transcript, Verdict, keep_group
from .qmath import Rng


@dataclass(frozen=True)
class InterceptResend:
    """Fixed-setting intercept-resend attack on a fraction of rounds."""

    phi: PhaseChoice
    basis: SpinBasis
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise InvalidDistributionError(
                f"intercepted fraction must lie in [0, 1], got {self.fraction!r}"
            )

    @property
    def guessed_group(self):
        """Group the attacker's setting resolves deterministically."""
        return keep_group(self.phi, self.basis)

    def infer_label(self, outcome: OutcomePair) -> StateLabel:
        """Maximum-likelihood label for one of her outcomes.

        Under a uniform prior the winner is always the guessed-group
        label whose outcome support contains the observation (likelihood
        1/2 against 1/4 for the other group); iteration order breaks
        impossible ties toward the lower label index.
        """
        for label in self.guessed_group.labels:
            if outcome in outcome_support(label, self.phi.radians, self.basis):
                return label
        raise InvalidDistributionError(f"outcome {outcome} outside every support")

    def tap(self, state: np.ndarray, rng: Rng) -> tuple[np.ndarray, Rng]:
        """Possibly intercept a state in flight and substitute her resend."""
        if self.fraction < 1.0:
            u, rng = rng.next_uniform()
            if u >= self.fraction:
                return state, rng
        dist = receiver_distribution(state, self.phi.radians, self.basis)
        idx, rng = rng.sample(dist)
        return prepare(self.infer_label(OUTCOMES[idx])), rng

    def to_config(self) -> dict:
        return {
            "type": "intercept_resend",
            "phi": self.phi.value,
            "basis": self.basis.value,
            "fraction": self.fraction,
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "InterceptResend":
        """The adversary of an ``eve`` mapping; every one from outside is built here.

        ``{"type": "intercept_resend", "phi": "0" | "pi/2", "basis": "z" | "y"}``, with
        an optional numeric ``fraction`` (default 1).  A ConfigError names the key at fault.
        """
        if not isinstance(cfg, dict):
            raise ConfigError(f"adversary config must be a mapping, got {cfg!r}")
        if cfg.get("type") != "intercept_resend":
            raise ConfigError(f"unknown adversary type {cfg.get('type')!r}")
        return cls(phi=json_choice(cfg.get("phi"), PhaseChoice, "intercept_resend phi"),
                   basis=json_choice(cfg.get("basis"), SpinBasis, "intercept_resend basis"),
                   fraction=json_number(cfg.get("fraction", 1.0), "intercept_resend fraction"))


@dataclass(frozen=True)
class QberEstimate:
    """Observed key mismatch rate with a binomial three-sigma half-width."""

    mismatches: int
    kept: int
    rate: float
    three_sigma: float


def qber(transcript: Transcript) -> QberEstimate:
    """Mismatch rate between the two keys over decodable kept rounds."""
    kept = 0
    mismatches = 0
    keep = Verdict.KEEP  # a local: reading the class attribute per round costs ~9x
    for r in transcript.rounds:
        if r.verdict is not keep or r.bob_bit is None:
            continue
        kept += 1
        mismatches += r.bob_bit != r.alice_bit
    if kept == 0:
        raise InsufficientDataError("no kept rounds to compare", required=1)
    rate = mismatches / kept
    return QberEstimate(
        mismatches=mismatches,
        kept=kept,
        rate=rate,
        three_sigma=3.0 * float(np.sqrt(rate * (1.0 - rate) / kept)),
    )
