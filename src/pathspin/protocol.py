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
import operator
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import IO, Iterator, NamedTuple

import numpy as np

from .errors import (ConfigError, DecodingError, InvalidDistributionError, ParseError,
                     is_json_int, json_choice, json_number, read_json)
from .optics import (
    HALF_PI,
    OUTCOMES,
    Group,
    IdentityEnum,
    OutcomePair,
    SpinBasis,
    StateLabel,
    outcome_support,
    pipeline_distribution,
    receiver_distribution,  # not called here; perfbench/warmup.py imports it from this module
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
        return 0.0 if self is PhaseChoice.PHI_0 else HALF_PI


class Verdict(IdentityEnum):
    KEEP = "keep"
    ABORT = "abort"


class BasisMode(Enum):
    """How the receiver picks the spin basis each round."""

    INDEPENDENT_UNIFORM = "independent_uniform"
    ALWAYS_Z = "always_z"


#: Labels, phases and bases in the order of the indices a round draws.
_LABELS = tuple(StateLabel)
_PHIS = tuple(PhaseChoice)
_BASES = tuple(SpinBasis)

#: (phi, basis) -> outcome -> label, read off the receiver chain: a setting resolves the labels
#: it sends onto two outcomes each, and maps those outcomes, and only those.  The bit Bob
#: decodes, and the label Eve infers with her copy of his apparatus.  Labels are written in
#: reverse, so a tie would go to the lower label.
DECODED = {(phi, basis): {outcome: label for label in reversed(_LABELS)
                          for support in (outcome_support(label, phi.radians, basis),)
                          if len(support) == 2 for outcome in support}
           for phi in _PHIS for basis in _BASES}

#: The group of the two labels each setting resolves, which split its four outcomes between
#: them.  Rounds are kept exactly when the sent group matches.
KEEP_GROUP: dict[tuple[PhaseChoice, SpinBasis], Group] = {
    setting: next(iter(decoded.values())).group for setting, decoded in DECODED.items()}


def sift(group: Group, phi: PhaseChoice, basis: SpinBasis) -> Verdict:
    """Keep when the setting resolves the sent group: the setting decides, never the outcome."""
    return Verdict.KEEP if KEEP_GROUP[(phi, basis)] is group else Verdict.ABORT


def decode_bit(group: Group, phi: PhaseChoice, basis: SpinBasis, outcome: OutcomePair) -> int:
    """Receiver-side key bit of a kept round: that of the group member whose support holds
    the outcome, read from ``DECODED``."""
    if sift(group, phi, basis) is not Verdict.KEEP:
        raise DecodingError(f"({phi.value}, {basis.value}) is not a kept setting for {group.value}")
    return DECODED[phi, basis][outcome].bit


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
    """One round, as ``Transcript.rounds`` derives it: its index, then the eight fields of its kind.

    A tuple, so ``record[1:]`` is the round's entry of ``_KINDS``.  A view:
    running a session, saving it and loading its canonical lines build none.
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


def _kind(label: StateLabel, phi: PhaseChoice, basis: SpinBasis, outcome: OutcomePair) -> tuple:
    """The fields after ``round_index`` of a round that draws these four values.  A kept setting
    splits the outcomes between the group's two labels: ``decode_bit`` never fails on one."""
    verdict = sift(label.group, phi, basis)
    bob = decode_bit(label.group, phi, basis, outcome) if verdict is Verdict.KEEP else None
    return (label, phi, basis, outcome, verdict, label.bit, bob, False)


#: The 64 kinds by kind index ``((label*2 + phi)*2 + basis)*4 + outcome``, the order
#: ``run_round`` draws in.
_KINDS = tuple(_kind(label, phi, basis, outcome)
               for label in _LABELS for phi in _PHIS for basis in _BASES for outcome in OUTCOMES)
#: One column per fact, by kind index: kept, the declared label's index, Alice's
#: bit and Bob's bit (0 on an aborted kind, where no key reads it).
_KEPT, _LABEL_INDEX, _ALICE_BIT, _BOB_BIT = (np.array(column) for column in zip(*(
    (verdict is Verdict.KEEP, _LABELS.index(label), alice, bob or 0)
    for label, _, _, _, verdict, alice, bob, _ in _KINDS)))

#: Kinds are counted, round lines written and read and footer declarations rendered this
#: many rounds at a time, so no pass over the kinds or the lines holds more than a block.
_ROUND_BLOCK = 1 << 10

#: Label on the channel -> [phi][basis], indices into ``_PHIS`` and ``_BASES`` -> the outcome
#: distribution Bob samples, and Eve with her copy of his apparatus.
RECEIVED = {label: tuple(tuple(pipeline_distribution(label, phi.radians, basis)
                               for basis in _BASES) for phi in _PHIS)
            for label in _LABELS}


def run_round(alice: AlicePolicy, bob: BobPolicy, eve, rng: Rng) -> int:
    """Simulate one round; return its kind index ``((label*2 + phi)*2 + basis)*4 + outcome``.

    ``eve`` is None or an adversary object exposing
    ``tap(label, rng) -> (label, rng)``: the channel carries a signal label.
    Draw order within the round's stream: label, phi, basis (uniform mode
    only), adversary draws, outcome.  Every round reads its outcome
    distribution from ``RECEIVED`` by the label that reaches Bob.  The
    index is that of the label Alice sent; its entry of ``_KINDS`` holds the
    verdict and bits ``sift`` and ``decode_bit`` fill at import.
    """
    label_idx, rng = rng.sample(alice.weights)
    phi_idx, rng = rng.sample(_HALF)
    if bob.basis_mode is BasisMode.ALWAYS_Z:
        basis_idx = 0
    else:
        basis_idx, rng = rng.sample(_HALF)

    label = _LABELS[label_idx]
    if eve is not None:
        label, rng = eve.tap(label, rng)
    outcome_idx, rng = rng.sample(RECEIVED[label][phi_idx][basis_idx])

    return ((label_idx * 2 + phi_idx) * 2 + basis_idx) * 4 + outcome_idx


@dataclass(frozen=True)
class Transcript:
    """A session: its seed, its config and the kind index of each round, one byte per round.

    ``kinds`` is the only per-round state: records, declarations, both keys and every summary
    figure (a masked sum of ``kind_counts``) derive from it, through the per-kind columns."""

    seed: int
    config: dict
    kinds: bytes

    def __post_init__(self) -> None:
        if type(self.kinds) is not bytes:
            raise ValueError("kinds must be bytes of kind indices below 64, "
                             f"got a {type(self.kinds).__name__}")
        kinds = np.frombuffer(self.kinds, np.uint8)
        if kinds.max(initial=0) > 63:
            first = int(np.argmax(kinds > 63))
            raise ValueError("kinds must be bytes of kind indices below 64, "
                             f"round {first} has kind {kinds[first]}")

    @property
    def kind_counts(self) -> np.ndarray:
        """The rounds of each kind index, 64 counts.

        ``np.bincount`` copies what it counts to ``intp``, 8 bytes a round, so the kinds are
        counted ``_ROUND_BLOCK`` rounds at a time and the counts summed."""
        kinds, counts = np.frombuffer(self.kinds, np.uint8), np.zeros(len(_KINDS), np.intp)
        for start in range(0, len(kinds), _ROUND_BLOCK):
            counts += np.bincount(kinds[start:start + _ROUND_BLOCK], minlength=len(_KINDS))
        return counts

    @property
    def rounds(self) -> list[RoundRecord]:
        return [RoundRecord(i, *_KINDS[kind]) for i, kind in enumerate(self.kinds)]

    @property
    def declarations(self) -> list[tuple[int, StateLabel]]:
        """(round index, label) of every aborted round, in round order."""
        kinds = np.frombuffer(self.kinds, np.uint8)
        aborted = np.flatnonzero(~_KEPT[kinds])
        labels = _LABEL_INDEX[kinds[aborted]].tolist()
        return list(zip(aborted.tolist(), [_LABELS[label] for label in labels]))

    @property
    def alice_key(self) -> list[int]:
        kinds = np.frombuffer(self.kinds, np.uint8)
        return _ALICE_BIT[kinds[_KEPT[kinds]]].tolist()

    @property
    def bob_key(self) -> list[int]:
        kinds = np.frombuffer(self.kinds, np.uint8)
        return _BOB_BIT[kinds[_KEPT[kinds]]].tolist()

    def keep_fraction(self) -> float:
        return int(self.kind_counts[_KEPT].sum()) / max(len(self.kinds), 1)

    def abort_counts(self) -> dict[StateLabel, int]:
        counts = self.kind_counts
        return {label: int(counts[~_KEPT & (_LABEL_INDEX == i)].sum())
                for i, label in enumerate(_LABELS)}

    def decode_failures(self) -> int:
        """Kept rounds Bob cannot decode: none, since every kept kind decodes (``_kind``)."""
        return 0

    def key_errors(self) -> tuple[int, int]:
        """(mismatched, decoded): kept rounds whose two bits differ, and kept rounds, all decoded."""
        counts = self.kind_counts
        return int(counts[_KEPT & (_BOB_BIT != _ALICE_BIT)].sum()), int(counts[_KEPT].sum())


def _config_snapshot(n_rounds: int, alice: AlicePolicy, bob: BobPolicy, eve) -> dict:
    return {
        "n_rounds": n_rounds,
        "alice_weights": [float(w) for w in alice.weights],
        "basis_mode": bob.basis_mode.value,
        "eve": None if eve is None else eve.to_config(),
    }


def run_session(n_rounds: int, alice: AlicePolicy, bob: BobPolicy, eve=None,
                seed: int = 0) -> Transcript:
    """Run ``n_rounds`` rounds; the transcript keeps the kind index of each.

    Round ``i`` draws only from stream ``i`` of ``seed``, the ``i``-th
    generator of ``Rng.streams``; rounds run in order on the calling thread.
    """
    for key, value in (("n_rounds", n_rounds), ("seed", seed)):
        if not is_json_int(value):  # the rule load_transcript reads the header by
            raise ConfigError(f"{key} must be an integer, got {value!r} of type {type(value).__name__}")
    if n_rounds < 1:
        raise ConfigError(f"n_rounds must be >= 1, got {n_rounds}")

    # run_round by its module-global name, once per round: perfbench/tracer.py counts it there
    return Transcript(seed, _config_snapshot(n_rounds, alice, bob, eve),
                      bytes(run_round(alice, bob, eve, rng) for rng in Rng.streams(seed, n_rounds)))


def replay_session(transcript: Transcript) -> Transcript:
    """Re-run a session from a transcript's header configuration.

    The header's ``n_rounds`` is checked first, then the other keys are
    read as a config file's are; a missing or unusable one raises
    ``ConfigError`` naming it (``alice_weights`` must be a list of four
    JSON numbers).  The header's ``eve`` is built by
    ``InterceptResend.from_config``.
    """
    from .adversary import InterceptResend  # adversary imports this module

    cfg = transcript.config
    n_rounds, eve = cfg.get("n_rounds"), cfg.get("eve")
    if not is_json_int(n_rounds):
        raise ConfigError(f"header config needs an integer n_rounds, got {n_rounds!r}")
    return run_session(
        n_rounds=n_rounds,
        alice=AlicePolicy.from_config(cfg.get("alice_weights")),
        bob=BobPolicy(json_choice(cfg.get("basis_mode"), BasisMode, "basis_mode")),
        eve=None if eve is None else InterceptResend.from_config(eve),
        seed=transcript.seed,
    )


# ---------------------------------------------------------------------------
# transcript serialization: one JSON object per line, header / rounds / footer


#: The keys of a round line after ``round_index``: the first ``_DRAWN``
#: name what the round drew, the rest what follows from it.
_ROUND_KEYS = ("label", "phi", "basis", "port", "spin",
               "verdict", "alice_bit", "bob_bit", "decode_failed")
_DRAWN = 5


#: Every round line starts with these bytes and continues with its index.
_ROUND_HEAD = '{"record":"round","round_index":'
#: The fields of each kind's round line after ``round_index``, as written, by kind index.
_WRITTEN = tuple(dict(zip(_ROUND_KEYS, (label.value, phi.value, basis.value, outcome.port.value,
                                        outcome.spin.value, verdict.value, *bits)))
                 for label, phi, basis, outcome, verdict, *bits in _KINDS)
#: Drawn values as written -> kind index.
_KIND_OF_DRAWN = {tuple(fields.values())[:_DRAWN]: i for i, fields in enumerate(_WRITTEN)}
#: The tail of each kind's round line, the part after its index, newline included.
_TAILS = tuple(f",{json.dumps(fields, separators=(',', ':'))[1:]}\n" for fields in _WRITTEN)
#: The tail of a canonical round line, newline included -> its kind index.
_KIND_OF_TAIL = {tail: i for i, tail in enumerate(_TAILS)}


def _canonical_rounds(lines: list[str], kinds: bytearray) -> int:
    """Append to ``kinds`` the kinds of the leading canonical lines of ``lines``; return how many.

    ``lines`` hold rounds ``len(kinds)`` on.  The line of round ``i`` is canonical when it is
    its head, ``_ROUND_HEAD`` and ``i``, then one of the 64 tails of ``_KIND_OF_TAIL``, newline
    included: exactly what ``save_transcript`` writes for its kind.  Every line is tested with
    a handful of calls over the whole list, and the first that is not canonical (the footer,
    say) ends the take."""
    first = len(kinds)
    tails = [*map(str.removeprefix, lines,
                  [f"{_ROUND_HEAD}{i}" for i in range(first, first + len(lines))])]
    got = [*map(_KIND_OF_TAIL.get, tails), None]
    # removeprefix hands back a line without its head unchanged, and a bare tail is in the table
    headed = [*map(operator.ne, tails, lines), False]
    taken = min(got.index(None), headed.index(False))  # each list ends in a miss
    kinds.extend(got[:taken])
    return taken


#: A footer declaration as written, by the declared label's index; ``%`` fills in its round.
#: No label holds a ``%``.
_DECLARED = tuple(f"[%d,{json.dumps(label.value)}]" for label in _LABELS)
#: Every footer line starts with these bytes.
_FOOTER_HEAD = '{"record":"footer","declarations":['
#: For ``bytes.translate``: the aborted kinds, which add no key digit, and each kind's digit.
_ABORTED = bytes(np.flatnonzero(~_KEPT).tolist())
_ALICE_DIGITS, _BOB_DIGITS = (bytes(48 + bit for bit in column.tolist()).ljust(256)
                              for column in (_ALICE_BIT, _BOB_BIT))


def _footer_parts(kinds: bytes) -> Iterator[str]:
    """The footer line, newline excluded, that ``save_transcript`` writes for these kinds, in parts:
    the head, the declarations of each ``_ROUND_BLOCK`` rounds that abort any, then each key."""
    yield _FOOTER_HEAD
    rounds, comma = np.frombuffer(kinds, np.uint8), ""
    for start in range(0, len(rounds), _ROUND_BLOCK):
        part = rounds[start:start + _ROUND_BLOCK]
        aborted = np.flatnonzero(~_KEPT[part])
        if len(aborted):
            # one ``%`` over the joined formats fills in every round of the part at once
            yield comma + (",".join(map(_DECLARED.__getitem__, _LABEL_INDEX[part[aborted]].tolist()))
                           % tuple((aborted + start).tolist()))
            comma = ","
    yield f'],"alice_key":"{kinds.translate(_ALICE_DIGITS, _ABORTED).decode("ascii")}"'
    yield f',"bob_key":"{kinds.translate(_BOB_DIGITS, _ABORTED).decode("ascii")}"}}'


def _footer_line(kinds: bytes) -> str:
    """The whole footer line of ``_footer_parts``."""
    return "".join(_footer_parts(kinds))


def _read_footer(fh: IO[str], kinds: bytearray) -> str | None:
    """Read the next line of ``fh`` as far as it is ``_footer_parts(kinds)``, a part at a time.

    None if the line is that footer and then whitespace only, so that stripped it is the
    footer.  Else the whole line as read, ``""`` at the end of the file: the parts it
    matched, rendered again, then the piece that differs and the rest of the line."""
    matched = 0
    for part in _footer_parts(kinds):
        got = fh.readline(len(part))
        if got != part:
            # a piece shorter than asked for, or ending in a newline, ends the line
            if len(got) == len(part) and not got.endswith("\n"):
                got += fh.readline()
            break
        matched += 1
    else:
        got = fh.readline()
        if not got.strip():
            return None
    return "".join(islice(_footer_parts(kinds), matched)) + got


def _differing_keys(got: dict, want: dict) -> list[str]:
    """The keys ``got`` lacks or holds as another JSON value than ``want``, then those only it has.

    ``1``, ``1.0`` and ``true`` all differ.  A list is the footer's ``[index, label]`` pairs."""
    return [key for key in {**want, **got} if key not in got or key not in want
            or type(got[key]) is not type(want[key]) or got[key] != want[key]
            or type(want[key]) is list and {type(i) for i, _ in got[key]} - {int}]


def _round_from_obj(obj: dict, index: int, line: int) -> int:
    """The kind index ``obj`` draws, if ``obj`` is the object of round ``index``'s line: the
    head keys, then that kind's ``_WRITTEN`` entry.

    A line without ``decode_failed`` reads it as False.  Each missing, differing or extra key
    is named, with the JSON types of ``_differing_keys``."""
    try:
        drawn = tuple(obj[key] for key in _ROUND_KEYS[:_DRAWN])
    except KeyError as exc:
        raise ParseError(f"round record without {exc}", line=line) from None
    try:
        kind = _KIND_OF_DRAWN[drawn]
    except (KeyError, TypeError):
        raise ParseError(f"no round draws {drawn!r}", line=line) from None
    got = {"decode_failed": False, **obj}
    want = {"record": "round", "round_index": index, **_WRITTEN[kind]}
    wrong = _differing_keys(got, want)
    if wrong:
        raise ParseError("; ".join(
            f"round record without {key!r}" if key not in got
            else f"{key} {got[key]!r}, expected {want[key]!r}" if key in want
            else f"round record with unknown key {key!r}" for key in wrong), line=line)
    return kind


def save_transcript(transcript: Transcript, dest: str | Path | IO[str]) -> None:
    """Write a transcript as line-delimited JSON (.qkdlog).

    A round's line is ``_ROUND_HEAD``, its index and a tail holding every
    other field, ``_TAILS[kind]`` of its kind index, rendered at import.  The
    lines of each ``_ROUND_BLOCK`` rounds are joined into one write.  The footer is
    written as ``_footer_parts`` of the same kinds renders it, part by part.
    """
    with (open(dest, "w", encoding="utf-8") if isinstance(dest, (str, Path))
          else nullcontext(dest)) as fh:
        header = {
            "record": "header",
            "version": TRANSCRIPT_VERSION,
            "seed": transcript.seed,
            "config": transcript.config,
        }
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        kinds = transcript.kinds
        for start in range(0, len(kinds), _ROUND_BLOCK):
            fh.write("".join([f"{_ROUND_HEAD}{i}{_TAILS[kind]}"
                              for i, kind in enumerate(kinds[start:start + _ROUND_BLOCK], start)]))
        for part in _footer_parts(kinds):
            fh.write(part)
        fh.write("\n")


def load_transcript(src: str | Path | IO[str]) -> Transcript:
    """Parse a .qkdlog file back into a Transcript.

    Blank lines are skipped; the first other line must be the header, and is
    read on its own.  Its ``version``, ``seed`` and ``n_rounds`` must be JSON
    integers.  The lines after it are read ``_ROUND_BLOCK`` at a time, and until
    the footer no more at a time than rounds are still announced: every round
    takes a line, so no block reaches past the last announced round's.  One
    ``_canonical_rounds`` call per block takes its leading canonical round lines
    by text: each is exactly what ``save_transcript`` writes for its kind, so
    ``_round_from_obj`` would accept it.  Once every announced round is read,
    ``_read_footer`` reads each next line a part at a time against
    ``_footer_parts`` of the kinds read: the footer, with only whitespace after
    it, is accepted by text and never held whole, whatever the spelling of the
    round lines before it.  Every other line is stripped and, unless blank,
    parsed by ``read_json``: a round line with a CRLF line end or trailing
    spaces, a last round line without a newline, round lines or a footer of
    another spelling, a footer with leading whitespace or before the last
    announced round, and every line of a block after its first such line.
    Each round's kind index is read from its draws, never trusted: a parsed
    round line, and a parsed footer, must have the keys and JSON-typed values
    of the object ``save_transcript`` writes for it, compared by
    ``_differing_keys``.  Raises ParseError (with the 1-based line number) on
    malformed or too deeply nested JSON, a non-object line, unknown record
    kinds, an unsupported version, truncation, a rejected round line, or a
    footer that differs from the one the kinds give.
    """
    with open(src, encoding="utf-8") if isinstance(src, (str, Path)) else nullcontext(src) as fh:
        for line_no, raw in enumerate(iter(fh.readline, ""), 1):
            if raw.strip():
                break
        else:
            raise ParseError("empty transcript, missing header record", line=1)
        header = read_json(raw.strip(), line_no)
        if header.get("record") != "header":
            raise ParseError(f"expected header record, got {header.get('record')!r}", line=line_no)
        # JSON integers only: True and 1.0 compare equal to 1
        version, config = header.get("version"), header.get("config")
        if not is_json_int(version) or version != TRANSCRIPT_VERSION:
            raise ParseError(f"unsupported transcript version {version!r}", line_no)
        if not isinstance(config, dict):
            raise ParseError(f"header needs a config object, got {config!r}", line_no)
        for key, value in (("seed", header.get("seed")), ("n_rounds", config.get("n_rounds"))):
            if not is_json_int(value):
                raise ParseError(f"header needs an integer {key}, got {value!r}", line_no)

        kinds = bytearray()
        footer = None
        while True:
            # every round takes a line, so a block that takes no more lines than rounds are
            # still announced ends by the last announced round's line
            room = config["n_rounds"] - len(kinds) if footer is None else _ROUND_BLOCK
            if room <= 0:
                # every announced round is read: the footer is matched as it is read
                line = _read_footer(fh, kinds)
                if line is None:
                    line_no += 1
                    footer, footer_line = True, line_no  # matched by text: no object to compare
                    continue
                block = [line] if line else []
            else:
                block = list(islice(fh, min(_ROUND_BLOCK, room)))
            if not block:
                break
            taken = _canonical_rounds(block, kinds) if footer is None else 0
            line_no += taken
            for raw in block[taken:]:
                line_no += 1
                raw = raw.strip()
                if not raw:
                    continue
                obj = read_json(raw, line_no)
                kind = obj.get("record")
                if kind == "round":
                    if footer is not None:
                        raise ParseError("round record after footer", line=line_no)
                    kinds.append(_round_from_obj(obj, len(kinds), line_no))
                elif kind == "footer":
                    if footer is not None:
                        raise ParseError("duplicate footer record", line=line_no)
                    footer, footer_line = obj, line_no
                elif kind == "header":
                    raise ParseError("duplicate header record", line=line_no)
                else:
                    raise ParseError(f"unknown record kind {kind!r}", line=line_no)
        if footer is None:
            raise ParseError("transcript ended before footer record", line=line_no + 1)
        if config["n_rounds"] != len(kinds):
            raise ParseError(f"header announces {config['n_rounds']} rounds, found {len(kinds)}",
                             line_no)
        transcript = Transcript(seed=header["seed"], config=config, kinds=bytes(kinds))
        if type(footer) is dict:  # parsed, not matched by text
            want = json.loads(_footer_line(transcript.kinds))
            wrong = ", ".join(_differing_keys(footer, want))
            if wrong:
                raise ParseError(f"footer {wrong} does not match the round records", footer_line)
        return transcript
