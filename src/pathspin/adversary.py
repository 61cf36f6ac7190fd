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
    outcome_support,  # not called here; perfbench/tracer.py wraps it in this module
)
from .protocol import _BASES, _PHIS, DECODED, RECEIVED, PhaseChoice, Transcript
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

    def infer_label(self, outcome: OutcomePair) -> StateLabel:
        """Maximum-likelihood label for one of her outcomes.

        Under a uniform prior the winner is always the guessed-group
        label whose outcome support contains the observation (likelihood
        1/2 against 1/4 for the other group); impossible ties go toward
        the lower label index.  Read from ``protocol.DECODED``, the table
        Bob decodes by: she owns a copy of his apparatus.
        """
        label = DECODED[self.phi, self.basis].get(outcome)
        if label is None:
            raise InvalidDistributionError(f"outcome {outcome} outside every support")
        return label

    def tap(self, label: StateLabel, rng: Rng, k: int) -> tuple[StateLabel, int]:
        """Possibly intercept the signal label in flight; return the label that travels on.

        An intercepted label is measured through her setting's row of ``protocol.RECEIVED``, the
        table Bob samples, and replaced by ``infer_label`` of her outcome.  She draws from
        position ``k`` of ``rng`` on, and returns the next position with the label.
        """
        if self.fraction < 1.0:
            u, k = rng.next_uniform(k)
            if u >= self.fraction:
                return label, k
        idx, k = rng.sample(RECEIVED[label][_PHIS.index(self.phi)][_BASES.index(self.basis)], k)
        return self.infer_label(OUTCOMES[idx]), k

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
        try:
            return cls(phi=json_choice(cfg.get("phi"), PhaseChoice, "intercept_resend phi"),
                       basis=json_choice(cfg.get("basis"), SpinBasis, "intercept_resend basis"),
                       fraction=json_number(cfg.get("fraction", 1.0), "intercept_resend fraction"))
        except InvalidDistributionError as exc:  # a fraction out of [0, 1]; the text names it
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class QberEstimate:
    """Observed key mismatch rate with a binomial three-sigma half-width."""

    mismatches: int
    kept: int
    rate: float
    three_sigma: float


def qber(transcript: Transcript) -> QberEstimate:
    """Mismatch rate between the two keys over decodable kept rounds, from ``key_errors``."""
    mismatches, kept = transcript.key_errors()
    if kept == 0:
        raise InsufficientDataError("no kept rounds to compare", required=1)
    rate = mismatches / kept
    return QberEstimate(
        mismatches=mismatches,
        kept=kept,
        rate=rate,
        three_sigma=3.0 * float(np.sqrt(rate * (1.0 - rate) / kept)),
    )
