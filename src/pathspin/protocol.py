"""Round engine, sifting rules, key extraction and transcript files.

One protocol round: the sender draws a signal label, the receiver draws a
phase setting phi in {0, pi/2} and a spin basis, the particle propagates
through the interferometer (optionally via an adversary's tap), and the
joint (port, spin) outcome is sampled.  A round is kept when the receiver
setting is the matched one for the announced group -- in that case the
outcome identifies the sent state within the group and both sides decode
the same key bit.  Every other setting leaves the outcome uniformly
random and the round is aborted; aborted rounds have their labels
declared publicly and feed the security analysis.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, IO, Iterable, NamedTuple

import numpy as np

from .errors import (ConfigError, DecodingError, InvalidDistributionError, ParseError,
                     is_json_bool, is_json_int, json_choice, json_number, read_json)
from .optics import (
    OUTCOMES,
    Group,
    IdentityEnum,
    OutcomePair,
    SpinBasis,
    StateLabel,
    outcome_support,
    prepare,
    receiver_distribution,
)
from .qmath import Distribution, Rng

TRANSCRIPT_VERSION = 1
_HALF = Distribution((0.5, 0.5))


class PhaseChoice(IdentityEnum):
    """Receiver phase setting; the protocol uses exactly two values."""

    PHI_0 = "0"
    PHI_HALF_PI = "pi/2"

    @property
    def radians(self) -> float:
        return 0.0 if self is PhaseChoice.PHI_0 else math.pi / 2.0


class Verdict(IdentityEnum):
    KEEP = "keep"
    ABORT = "abort"


class BasisMode(Enum):
    """How the receiver picks the spin basis each round."""

    INDEPENDENT_UNIFORM = "independent_uniform"
    ALWAYS_Z = "always_z"


#: The unique group whose states are deterministically resolved by each
#: receiver setting.  Rounds are kept exactly when the sent group matches.
KEEP_GROUP: dict[tuple[PhaseChoice, SpinBasis], Group] = {
    (PhaseChoice.PHI_0, SpinBasis.Y): Group.G1,
    (PhaseChoice.PHI_HALF_PI, SpinBasis.Z): Group.G1,
    (PhaseChoice.PHI_0, SpinBasis.Z): Group.G2,
    (PhaseChoice.PHI_HALF_PI, SpinBasis.Y): Group.G2,
}


def keep_group(phi: PhaseChoice, basis: SpinBasis) -> Group:
    """Group for which (phi, basis) is the matched (key-generating) setting."""
    return KEEP_GROUP[(phi, basis)]


def sift(group: Group, phi: PhaseChoice, basis: SpinBasis) -> Verdict:
    """Keep/abort decision; depends only on the setting, never the outcome."""
    return Verdict.KEEP if KEEP_GROUP[(phi, basis)] is group else Verdict.ABORT


def decode_bit(group: Group, phi: PhaseChoice, basis: SpinBasis, outcome: OutcomePair) -> int:
    """Receiver-side key bit of a kept round.

    The matched setting splits the four outcomes into two disjoint pairs,
    one per group member; the bit is the member whose support contains
    the observed outcome.
    """
    if sift(group, phi, basis) is not Verdict.KEEP:
        raise DecodingError(f"({phi.value}, {basis.value}) is not a kept setting for {group.value}")
    for label in group.labels:
        if outcome in outcome_support(label, phi.radians, basis):
            return label.bit
    raise DecodingError(f"outcome {outcome} matches no state of group {group.value}")


@dataclass(frozen=True)
class AlicePolicy:
    """Sender's source distribution over the four signal labels."""

    weights: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        w = Distribution(self.weights)
        if len(w) != 4:
            raise InvalidDistributionError(f"expected 4 weights, got {len(w)}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls) -> "AlicePolicy":
        return cls((0.25, 0.25, 0.25, 0.25))

    @classmethod
    def family(cls, p: float) -> "AlicePolicy":
        """One-parameter family: weight p on the first label, rest uniform."""
        if not 0.0 <= p <= 1.0:
            raise InvalidDistributionError(f"family parameter must lie in [0, 1], got {p!r}")
        q = (1.0 - p) / 3.0
        return cls((p, q, q, q))

    @classmethod
    def from_config(cls, weights: list) -> "AlicePolicy":
        """The source of an ``alice_weights`` list of four JSON numbers.

        Every such list from outside is read here: a config file's, a flag's
        as ``cli.parse_weights`` expands it, or a transcript header's."""
        if not isinstance(weights, list) or len(weights) != 4:
            raise ConfigError(f"alice_weights must be a list of 4 numbers, got {weights!r}")
        try:
            return cls(tuple(json_number(w, "alice_weights") for w in weights))
        except InvalidDistributionError as exc:
            raise ConfigError(f"alice_weights: {exc}") from None


@dataclass(frozen=True)
class BobPolicy:
    """Receiver's setting strategy.  phi is always drawn uniformly."""

    basis_mode: BasisMode = BasisMode.INDEPENDENT_UNIFORM


class RoundRecord(NamedTuple):
    """One simulated round: its index, then the eight fields of its kind.

    A tuple, so ``record[1:]`` is the round's entry of ``_KINDS``, and
    ``tuple.__new__(RoundRecord, fields)`` builds one without running
    Python code.
    """

    round_index: int
    label: StateLabel
    phi: PhaseChoice
    basis: SpinBasis
    outcome: OutcomePair
    verdict: Verdict
    alice_bit: int
    bob_bit: int | None
    decode_failed: bool = False


#: Labels, phases and bases in the order of the indices a round draws.
_LABELS = tuple(StateLabel)
_PHIS = (PhaseChoice.PHI_0, PhaseChoice.PHI_HALF_PI)
_BASES = (SpinBasis.Z, SpinBasis.Y)
_RADIANS = tuple(phi.radians for phi in _PHIS)
_STATES = tuple(prepare(label) for label in _LABELS)


def _sift_row(group: Group, phi: PhaseChoice, basis: SpinBasis) -> tuple[Verdict, tuple]:
    """Verdict of a setting and, per outcome index, Bob's (bit, decode_failed)."""
    verdict = sift(group, phi, basis)
    if verdict is not Verdict.KEEP:
        return verdict, ((None, False),) * len(OUTCOMES)
    decoded = []
    for outcome in OUTCOMES:
        try:
            decoded.append((decode_bit(group, phi, basis, outcome), False))
        except DecodingError:
            decoded.append((None, True))
    return verdict, tuple(decoded)


#: [label][phi][basis] -> ``_sift_row`` of the label's group: the 4x2x2x4
#: lookup that replaces sifting and decoding once the draws are made.
_SIFTED = tuple(
    tuple(tuple(_sift_row(label.group, phi, basis) for basis in _BASES) for phi in _PHIS)
    for label in _LABELS
)

#: [label][phi][basis][outcome] -> the fields after ``round_index`` of all 64 rounds.
_KINDS = tuple(
    tuple(
        tuple(
            tuple((label, phi, basis, outcome, verdict, label.bit, *bob)
                  for outcome, bob in zip(OUTCOMES, decoded))
            for basis, (verdict, decoded) in zip(_BASES, row))
        for phi, row in zip(_PHIS, rows))
    for label, rows in zip(_LABELS, _SIFTED))
#: The 64 kinds by kind index ``((label*2 + phi)*2 + basis)*4 + outcome``, the order
#: ``run_round`` draws in; ``_KIND_INDEX`` maps a record's slice ``r[1:]`` to its index.
_FLAT_KINDS = tuple(kind for rows in _KINDS for row in rows for cell in row for kind in cell)
_KIND_INDEX = {kind: i for i, kind in enumerate(_FLAT_KINDS)}
#: One column per fact, by kind index: kept, the declared label's index, Alice's
#: bit, Bob's bit (-1 where he has none) and decode_failed.
_KEPT, _LABEL_INDEX, _ALICE_BIT, _BOB_BIT, _DECODE_FAILED = (np.array(column) for column in zip(*(
    (verdict is Verdict.KEEP, _LABELS.index(label), alice, -1 if bob is None else bob, failed)
    for label, _, _, _, verdict, alice, bob, failed in _FLAT_KINDS)))


#: [label][phi][basis] -> Bob's outcome distribution for the signal state as sent.
_RECEIVED = tuple(
    tuple(tuple(receiver_distribution(state, radians, basis) for basis in _BASES)
          for radians in _RADIANS)
    for state in _STATES)


def run_round(index: int, alice: AlicePolicy, bob: BobPolicy, eve, rng: Rng) -> RoundRecord:
    """Simulate one round.

    ``eve`` is None or an adversary object exposing
    ``tap(state, rng) -> (state, rng)``.  Draw order within the round's
    stream: label, phi, basis (uniform mode only), adversary draws,
    outcome.  An untapped round reads its outcome distribution from
    ``_RECEIVED``; a tapped one runs ``receiver_distribution`` on the state
    the tap forwards.  The record is the drawn entry of ``_KINDS``, whose
    verdicts and bits ``sift`` and ``decode_bit`` fill at import.
    """
    label_idx, rng = rng.sample(alice.weights)
    phi_idx, rng = rng.sample(_HALF)
    if bob.basis_mode is BasisMode.ALWAYS_Z:
        basis_idx = 0
    else:
        basis_idx, rng = rng.sample(_HALF)

    if eve is None:
        received = _RECEIVED[label_idx][phi_idx][basis_idx]
    else:
        state, rng = eve.tap(_STATES[label_idx], rng)
        received = receiver_distribution(state, _RADIANS[phi_idx], _BASES[basis_idx])
    outcome_idx, rng = rng.sample(received)

    return tuple.__new__(RoundRecord, (index, *_KINDS[label_idx][phi_idx][basis_idx][outcome_idx]))


@dataclass
class Transcript:
    """Complete record of a session plus the publicly announced data.

    Every summary figure is a masked sum of ``kind_counts``, the rounds per kind index."""

    seed: int
    config: dict
    rounds: list[RoundRecord]
    declarations: list[tuple[int, StateLabel]]
    alice_key: list[int]
    bob_key: list[int]
    version: int = TRANSCRIPT_VERSION
    kind_counts: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind_counts is None:  # counted from the records
            self.kind_counts = _announce(self.rounds)[3]

    def keep_fraction(self) -> float:
        return int(self.kind_counts[_KEPT].sum()) / max(int(self.kind_counts.sum()), 1)

    def abort_counts(self) -> dict[StateLabel, int]:
        return {label: int(self.kind_counts[~_KEPT & (_LABEL_INDEX == i)].sum())
                for i, label in enumerate(_LABELS)}

    def decode_failures(self) -> int:
        return int(self.kind_counts[_DECODE_FAILED].sum())


def _config_snapshot(n_rounds: int, alice: AlicePolicy, bob: BobPolicy, eve) -> dict:
    return {
        "n_rounds": n_rounds,
        "alice_weights": [float(w) for w in alice.weights],
        "basis_mode": bob.basis_mode.value,
        "eve": None if eve is None else eve.to_config(),
    }


def run_session(
    n_rounds: int,
    alice: AlicePolicy,
    bob: BobPolicy,
    eve=None,
    seed: int = 0,
    jobs: int = 1,
) -> Transcript:
    """Run ``n_rounds`` rounds and assemble keys and abort declarations.

    Round ``i`` draws only from stream ``i`` of ``seed``, the ``i``-th
    generator of ``Rng.streams``.  ``jobs`` must be
    >= 1 but selects no code path: rounds always run in order on the
    calling thread, so the transcript is the same for every ``jobs``.
    """
    if n_rounds < 1:
        raise ConfigError(f"n_rounds must be >= 1, got {n_rounds}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

    rounds = [run_round(i, alice, bob, eve, rng)
              for i, rng in enumerate(Rng.streams(seed, n_rounds))]
    declarations, alice_key, bob_key, kind_counts = _announce(rounds)
    return Transcript(
        seed=seed,
        config=_config_snapshot(n_rounds, alice, bob, eve),
        rounds=rounds,
        declarations=declarations,
        alice_key=alice_key,
        bob_key=bob_key,
        kind_counts=kind_counts,
    )


def _no_kind(rounds: list[RoundRecord]) -> ValueError:
    """The error for the first of ``rounds`` that is none of the 64 kinds, naming its round."""
    for r in rounds:
        try:
            if r[1:] in _KIND_INDEX:
                continue
        except TypeError:  # a field that cannot be hashed
            pass
        return ValueError(f"round {r[0]} is none of the 64 kinds: {r!r}")
    raise AssertionError("every record is one of the 64 kinds")


def _announce(rounds: list[RoundRecord]) -> tuple[list, list[int], list[int], np.ndarray]:
    """Declarations, keys and kind counts: the one pass maps each record to its kind index.

    A record of none of the 64 kinds raises the ValueError of ``_no_kind``."""
    try:
        kinds = np.fromiter((_KIND_INDEX[r[1:]] for r in rounds), np.uint8, len(rounds))
    except (KeyError, TypeError):
        raise _no_kind(rounds) from None
    kept, bob_bits = _KEPT[kinds], _BOB_BIT[kinds]
    declarations = [rounds[i][:2] for i in np.flatnonzero(~kept).tolist()]
    return (declarations, _ALICE_BIT[kinds[kept]].tolist(), bob_bits[bob_bits >= 0].tolist(),
            np.bincount(kinds, minlength=len(_FLAT_KINDS)))


def replay_session(transcript: Transcript, eve_factory: Callable[[dict], object] | None = None) -> Transcript:
    """Re-run a session from a transcript's header configuration.

    ``load_transcript`` checks only the header's ``n_rounds``; the other
    keys are read here as a config file's are, and a missing or unusable
    one raises ``ConfigError`` naming it (``alice_weights`` must be a list
    of four JSON numbers).  ``eve_factory`` builds the adversary of the
    header's ``eve``; ``InterceptResend.from_config`` is the one for
    transcripts this package writes.
    """
    cfg = transcript.config
    eve = cfg.get("eve")
    if eve is not None and eve_factory is None:
        raise ConfigError("transcript has an adversary; supply eve_factory")
    return run_session(
        n_rounds=cfg["n_rounds"],
        alice=AlicePolicy.from_config(cfg.get("alice_weights")),
        bob=BobPolicy(json_choice(cfg.get("basis_mode"), BasisMode, "basis_mode")),
        eve=None if eve is None else eve_factory(eve),
        seed=transcript.seed,
    )


# ---------------------------------------------------------------------------
# transcript serialization: one JSON object per line, header / rounds / footer


#: The keys of a round line after ``round_index``: the first ``_DRAWN``
#: name what the round drew, the rest what follows from it.
_ROUND_KEYS = ("label", "phi", "basis", "port", "spin",
               "verdict", "alice_bit", "bob_bit", "decode_failed")
_DRAWN = 5


def _as_written(kind: tuple) -> tuple:
    """A kind's values as its round line writes them, in ``_ROUND_KEYS`` order."""
    label, phi, basis, outcome, verdict, *bits = kind
    return (label.value, phi.value, basis.value, outcome.port.value, outcome.spin.value,
            verdict.value, *bits)


def _round_to_obj(r: RoundRecord) -> dict:
    return {"record": "round", "round_index": r.round_index,
            **dict(zip(_ROUND_KEYS, _as_written(r[1:])))}


def _bits_to_str(bits: Iterable[int]) -> str:
    return "".join(["1" if b else "0" for b in bits])


def _footer_obj(
    declarations: list[tuple[int, StateLabel]], alice_key: list[int], bob_key: list[int]
) -> dict:
    return {
        "record": "footer",
        # ``_value_`` is what the ``value`` property returns, without the property call
        "declarations": [[i, label._value_] for i, label in declarations],
        "alice_key": _bits_to_str(alice_key),
        "bob_key": _bits_to_str(bob_key),
    }


#: Every round line starts with these bytes and continues with its index.
_ROUND_HEAD = '{"record":"round","round_index":'


def _round_tail(r: RoundRecord) -> str:
    """The part of a round's line after ``round_index``, newline included."""
    tail = json.dumps(dict(zip(_ROUND_KEYS, _as_written(r[1:]))), separators=(",", ":"))
    return f",{tail[1:]}\n"


#: Drawn values as written -> (kind, the values that follow from it as written).
_KIND_OF_TEXT = {_as_written(k)[:_DRAWN]: (k, _as_written(k)[_DRAWN:]) for k in _FLAT_KINDS}
#: Kind -> the tail of its round line.
_TAILS = {kind: _round_tail(RoundRecord(0, *kind)) for kind in _FLAT_KINDS}
#: The tail of a canonical round line, newline stripped -> its kind.
_KIND_OF_TAIL = {tail[:-1]: kind for kind, tail in _TAILS.items()}


def _typed(value: object) -> tuple:
    """``value`` with its JSON type, so that ``true``, ``1.0`` and ``1`` differ as on a line."""
    return is_json_int(value), is_json_bool(value), value


def _round_from_obj(obj: dict, index: int, line: int) -> RoundRecord:
    """Round ``index`` built from the kind ``obj`` draws, if ``obj`` declares its fields.

    Each declared field must be the kind's value with its JSON type.  A line
    without ``decode_failed`` (as early files were written) declares False."""
    if _typed(obj.get("round_index")) != _typed(index):
        raise ParseError(f"round_index {obj.get('round_index')!r}, expected {index}", line=line)
    *keys, last = _ROUND_KEYS
    try:
        values = (*(obj[key] for key in keys), obj.get(last, False))
    except KeyError as exc:
        raise ParseError(f"round record without {exc}", line=line) from None
    drawn, declared = values[:_DRAWN], values[_DRAWN:]
    try:
        kind, derived = _KIND_OF_TEXT[drawn]
    except (KeyError, TypeError):
        raise ParseError(f"no round draws {drawn!r}", line=line) from None
    wrong = [f"{k} {got!r}, expected {want!r}" for k, got, want in
             zip(_ROUND_KEYS[_DRAWN:], declared, derived) if _typed(got) != _typed(want)]
    if wrong:
        raise ParseError("; ".join(wrong), line=line)
    return RoundRecord(index, *kind)


def save_transcript(transcript: Transcript, dest: str | Path | IO[str]) -> None:
    """Write a transcript as line-delimited JSON (.qkdlog).

    A round's line is ``_ROUND_HEAD``, its index and a tail holding every
    other field.  The tail is looked up in ``_TAILS``, rendered at import,
    by the record's slice ``r[1:]``, which is its kind; a record of none of
    the 64 kinds raises a ValueError naming its round, and the file is left
    without a footer.  Lines are written one at a time, never joined.
    """
    with (open(dest, "w", encoding="utf-8") if isinstance(dest, (str, Path))
          else nullcontext(dest)) as fh:
        header = {
            "record": "header",
            "version": transcript.version,
            "seed": transcript.seed,
            "config": transcript.config,
        }
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        try:
            for r in transcript.rounds:
                fh.write(f"{_ROUND_HEAD}{r.round_index}{_TAILS[r[1:]]}")
        except (KeyError, TypeError):
            raise _no_kind(transcript.rounds) from None
        footer = _footer_obj(transcript.declarations, transcript.alice_key, transcript.bob_key)
        fh.write(json.dumps(footer, separators=(",", ":")) + "\n")


def load_transcript(src: str | Path | IO[str]) -> Transcript:
    """Parse a .qkdlog file back into a Transcript.

    Blank lines are skipped; the first other line must be the header.  Each
    round is rebuilt from its draws, never trusted.  A canonical round line
    -- between header and footer, ``_ROUND_HEAD``, the next index, one of
    the 64 tails of ``_KIND_OF_TAIL`` and a newline -- is matched by text,
    as read: it is exactly what ``save_transcript`` writes for its kind, so
    ``_round_from_obj`` would give the same kind.  Only a line that misses
    is stripped and parsed by ``read_json``, and goes through the same
    checks: a blank line, a CRLF line end, trailing spaces, a last line
    without a newline and round lines of another spelling all take that
    path.  Every field of such a line, and the header's ``version``,
    ``seed`` and ``n_rounds``, must have the JSON type ``save_transcript``
    writes: ``"alice_bit": 0.0`` is refused.  Raises ParseError (with the
    1-based line number) on malformed or too deeply nested JSON, a
    non-object line, unknown record kinds, an unsupported version,
    truncation, a rejected round line, or a footer that the rounds refute.
    The file is read one line at a time.
    """
    with open(src, encoding="utf-8") if isinstance(src, (str, Path)) else nullcontext(src) as fh:
        header = None
        rounds: list[RoundRecord] = []
        footer = None
        line_no = 0
        for line_no, raw in enumerate(fh, start=1):
            if header is not None and footer is None:
                prefix = f"{_ROUND_HEAD}{len(rounds)}"
                kind = (raw.startswith(prefix) and raw.endswith("\n")
                        and _KIND_OF_TAIL.get(raw[len(prefix):-1]))
                if kind:
                    rounds.append(tuple.__new__(RoundRecord, (len(rounds), *kind)))
                    continue
            raw = raw.strip()
            if not raw:
                continue
            obj = read_json(raw, line_no)
            kind = obj.get("record")
            if header is None:
                if kind != "header":
                    raise ParseError(f"expected header record, got {kind!r}", line=line_no)
                # JSON integers only: True and 1.0 compare equal to 1
                version, config = obj.get("version"), obj.get("config")
                if not is_json_int(version) or version != TRANSCRIPT_VERSION:
                    raise ParseError(f"unsupported transcript version {version!r}", line=line_no)
                if not isinstance(config, dict):
                    raise ParseError(f"header needs a config object, got {config!r}", line_no)
                for key, value in (("seed", obj.get("seed")), ("n_rounds", config.get("n_rounds"))):
                    if not is_json_int(value):
                        raise ParseError(f"header needs an integer {key}, got {value!r}", line_no)
                header = obj
            elif kind == "round":
                if footer is not None:
                    raise ParseError("round record after footer", line=line_no)
                rounds.append(_round_from_obj(obj, len(rounds), line_no))
            elif kind == "footer":
                if footer is not None:
                    raise ParseError("duplicate footer record", line=line_no)
                footer, footer_line = obj, line_no
            elif kind == "header":
                raise ParseError("duplicate header record", line=line_no)
            else:
                raise ParseError(f"unknown record kind {kind!r}", line=line_no)
        if header is None:
            raise ParseError("empty transcript, missing header record", line=1)
        if footer is None:
            raise ParseError("transcript ended before footer record", line=line_no + 1)
        expected = header["config"].get("n_rounds")
        if expected != len(rounds):
            raise ParseError(f"header announces {expected} rounds, found {len(rounds)}", line_no)
        declarations, alice_key, bob_key, kind_counts = _announce(rounds)
        derived = _footer_obj(declarations, alice_key, bob_key)
        for key in ("declarations", "alice_key", "bob_key"):
            if footer.get(key) != derived[key]:
                raise ParseError(f"footer {key} does not match the round records", footer_line)
        return Transcript(seed=header["seed"], config=header["config"], rounds=rounds,
                          declarations=declarations, alice_key=alice_key, bob_key=bob_key,
                          version=header["version"], kind_counts=kind_counts)
