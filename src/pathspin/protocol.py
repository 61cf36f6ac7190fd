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
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, IO, Iterable, NamedTuple

from .errors import ConfigError, DecodingError, InvalidDistributionError, ParseError
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


def run_round(index: int, alice: AlicePolicy, bob: BobPolicy, eve, rng: Rng) -> RoundRecord:
    """Simulate one round.

    ``eve`` is None or an adversary object exposing
    ``tap(state, rng) -> (state, rng)``.  Draw order within the round's
    stream: label, phi, basis (uniform mode only), adversary draws,
    outcome.  The record is the drawn entry of ``_KINDS``, whose verdicts
    and bits ``sift`` and ``decode_bit`` fill at import.
    """
    label_idx, rng = rng.sample(alice.weights)
    phi_idx, rng = rng.sample(_HALF)
    if bob.basis_mode is BasisMode.ALWAYS_Z:
        basis_idx = 0
    else:
        basis_idx, rng = rng.sample(_HALF)

    state = _STATES[label_idx]
    if eve is not None:
        state, rng = eve.tap(state, rng)

    basis = _BASES[basis_idx]
    outcome_idx, rng = rng.sample(receiver_distribution(state, _RADIANS[phi_idx], basis))

    return tuple.__new__(RoundRecord, (index, *_KINDS[label_idx][phi_idx][basis_idx][outcome_idx]))


@dataclass
class Transcript:
    """Complete record of a session plus the publicly announced data."""

    seed: int
    config: dict
    rounds: list[RoundRecord]
    declarations: list[tuple[int, StateLabel]]
    alice_key: list[int]
    bob_key: list[int]
    version: int = TRANSCRIPT_VERSION

    def keep_fraction(self) -> float:
        if not self.rounds:
            return 0.0
        keep = Verdict.KEEP  # a local: reading the class attribute per round costs ~9x
        kept = sum(r.verdict is keep for r in self.rounds)
        return kept / len(self.rounds)

    def abort_counts(self) -> dict[StateLabel, int]:
        counts = {label: 0 for label in StateLabel}
        for _, label in self.declarations:
            counts[label] += 1
        return counts

    def decode_failures(self) -> int:
        return sum(r.decode_failed for r in self.rounds)


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
    declarations, alice_key, bob_key = _announce(rounds)
    return Transcript(
        seed=seed,
        config=_config_snapshot(n_rounds, alice, bob, eve),
        rounds=rounds,
        declarations=declarations,
        alice_key=alice_key,
        bob_key=bob_key,
    )


def _announce(
    rounds: list[RoundRecord],
) -> tuple[list[tuple[int, StateLabel]], list[int], list[int]]:
    """Abort declarations and the two keys that follow from the round records."""
    keep, abort = Verdict.KEEP, Verdict.ABORT  # locals: class attribute reads cost ~9x
    declarations = [(r.round_index, r.label) for r in rounds if r.verdict is abort]
    alice_key = [r.alice_bit for r in rounds if r.verdict is keep]
    bob_key = [r.bob_bit for r in rounds if r.verdict is keep and r.bob_bit is not None]
    return declarations, alice_key, bob_key


def replay_session(transcript: Transcript, eve_factory: Callable[[dict], object] | None = None) -> Transcript:
    """Re-run a session from a transcript's header configuration."""
    cfg = transcript.config
    eve_cfg = cfg.get("eve")
    eve = None
    if eve_cfg is not None:
        if eve_factory is None:
            raise ConfigError("transcript has an adversary; supply eve_factory")
        eve = eve_factory(eve_cfg)
    return run_session(
        n_rounds=cfg["n_rounds"],
        alice=AlicePolicy(tuple(cfg["alice_weights"])),
        bob=BobPolicy(BasisMode(cfg["basis_mode"])),
        eve=eve,
        seed=transcript.seed,
    )


# ---------------------------------------------------------------------------
# transcript serialization: one JSON object per line, header / rounds / footer


def _round_to_obj(r: RoundRecord) -> dict:
    return {
        "record": "round",
        "round_index": r.round_index,
        "label": r.label.value,
        "phi": r.phi.value,
        "basis": r.basis.value,
        "port": r.outcome.port.value,
        "spin": r.outcome.spin.value,
        "verdict": r.verdict.value,
        "alice_bit": r.alice_bit,
        "bob_bit": r.bob_bit,
        "decode_failed": r.decode_failed,
    }


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
    obj = _round_to_obj(r)
    del obj["record"], obj["round_index"]
    return "," + json.dumps(obj, separators=(",", ":"))[1:] + "\n"


#: Drawn fields as written -> (kind, its verdict and bits as written).
_KIND_OF_TEXT = {
    (l.value, p.value, b.value, o.port.value, o.spin.value):
        ((l, p, b, o, v, *bits), (v.value, *bits))
    for rows in _KINDS for row in rows for cell in row for l, p, b, o, v, *bits in cell
}
#: Kind -> the tail of its round line.
_TAILS = {kind: _round_tail(RoundRecord(0, *kind)) for kind, _ in _KIND_OF_TEXT.values()}
#: The tail of a canonical round line, newline stripped -> its kind.
_KIND_OF_TAIL = {tail[:-1]: kind for kind, tail in _TAILS.items()}


def _round_from_obj(obj: dict, index: int, line: int) -> RoundRecord:
    """Round ``index`` built from the kind ``obj`` draws, if ``obj`` declares its fields.

    A line without ``decode_failed`` (as early files were written) declares False."""
    if obj.get("round_index") != index:
        raise ParseError(f"round_index {obj.get('round_index')!r}, expected {index}", line=line)
    try:
        drawn = (obj["label"], obj["phi"], obj["basis"], obj["port"], obj["spin"])
        declared = (obj["verdict"], obj["alice_bit"], obj["bob_bit"],
                    obj.get("decode_failed", False))
    except KeyError as exc:
        raise ParseError(f"round record without {exc}", line=line) from None
    try:
        kind, derived = _KIND_OF_TEXT[drawn]
    except (KeyError, TypeError):
        raise ParseError(f"no round draws {drawn!r}", line=line) from None
    if declared != derived:
        names = ("verdict", "alice_bit", "bob_bit", "decode_failed")
        raise ParseError("; ".join(f"{k} {got!r}, expected {want!r}" for k, got, want in
                                   zip(names, declared, derived) if got != want), line=line)
    return RoundRecord(index, *kind)


def save_transcript(transcript: Transcript, dest: str | Path | IO[str]) -> None:
    """Write a transcript as line-delimited JSON (.qkdlog).

    A round's line is ``_ROUND_HEAD``, its index and a tail holding every
    other field.  The tail is looked up in ``_TAILS``, rendered at import,
    by the record's slice ``r[1:]``, which is its kind; a record that is
    no kind gets one ``json.dumps``.  Lines are written one at a time,
    never joined.
    """
    own = isinstance(dest, (str, Path))
    fh = open(dest, "w", encoding="utf-8") if own else dest
    try:
        header = {
            "record": "header",
            "version": transcript.version,
            "seed": transcript.seed,
            "config": transcript.config,
        }
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for r in transcript.rounds:
            tail = _TAILS.get(r[1:])
            fh.write(f"{_ROUND_HEAD}{r.round_index}{tail or _round_tail(r)}")
        footer = _footer_obj(transcript.declarations, transcript.alice_key, transcript.bob_key)
        fh.write(json.dumps(footer, separators=(",", ":")) + "\n")
    finally:
        if own:
            fh.close()


def load_transcript(src: str | Path | IO[str]) -> Transcript:
    """Parse a .qkdlog file back into a Transcript.

    Blank lines are skipped; the first other line must be the header.  Each
    round is rebuilt from its draws, never trusted.  A canonical round line
    -- between header and footer, ``_ROUND_HEAD``, the next index, one of
    the 64 tails of ``_KIND_OF_TAIL`` and a newline -- is matched by text,
    as read: it is exactly what ``save_transcript`` writes for its kind, so
    ``_round_from_obj`` would give the same kind.  Only a line that misses
    is stripped and parsed as JSON, and goes through the same checks: a
    blank line, a CRLF line end, trailing spaces, a last line without a
    newline and round lines of another spelling all take that path.
    Raises ParseError (with the 1-based line number) on malformed or too
    deeply nested JSON, a non-object line, unknown record kinds, an
    unsupported version, truncation, a rejected round line, or a footer
    that the rounds refute.  The file is read one line at a time.
    """
    own = isinstance(src, (str, Path))
    fh = open(src, "r", encoding="utf-8") if own else src
    try:
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
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", line=line_no) from exc
            except RecursionError:
                raise ParseError("invalid JSON (nested too deeply)", line=line_no) from None
            except ValueError:  # from int(), for a literal beyond the interpreter's digit limit
                raise ParseError("invalid JSON (integer literal too long)", line=line_no) from None
            if not isinstance(obj, dict):
                raise ParseError(
                    f"expected a JSON object, got {type(obj).__name__}", line=line_no
                )
            kind = obj.get("record")
            if header is None:
                if kind != "header":
                    raise ParseError(f"expected header record, got {kind!r}", line=line_no)
                if obj.get("version") != TRANSCRIPT_VERSION:
                    raise ParseError(
                        f"unsupported transcript version {obj.get('version')!r}", line=line_no
                    )
                if not isinstance(obj.get("seed"), int):
                    raise ParseError(
                        f"header needs an integer seed, got {obj.get('seed')!r}", line=line_no
                    )
                if not isinstance(obj.get("config"), dict):
                    raise ParseError(
                        f"header needs a config object, got {obj.get('config')!r}", line=line_no
                    )
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
            raise ParseError(
                f"header announces {expected} rounds, found {len(rounds)}", line=line_no
            )
        declarations, alice_key, bob_key = _announce(rounds)
        derived = _footer_obj(declarations, alice_key, bob_key)
        for key in ("declarations", "alice_key", "bob_key"):
            if footer.get(key) != derived[key]:
                raise ParseError(
                    f"footer {key} does not match the round records", line=footer_line
                )
        return Transcript(
            seed=int(header["seed"]),
            config=header["config"],
            rounds=rounds,
            declarations=declarations,
            alice_key=alice_key,
            bob_key=bob_key,
            version=int(header["version"]),
        )
    finally:
        if own:
            fh.close()
