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
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat
from os.path import commonprefix
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

    Each draw reads ``rng`` at the position ``k`` the previous draw returned, so the round
    builds no generator.  ``eve`` is None or an adversary object exposing ``tap(label, rng, k)
    -> (label, k)``: the channel carries a signal label.  Draw order within the round's stream:
    label, phi, basis (uniform mode only), adversary draws, outcome.  Every round reads its
    outcome distribution from ``RECEIVED`` by the label that reaches Bob.  The index is that of
    the label Alice sent; its entry of ``_KINDS`` holds the verdict and bits ``sift`` and
    ``decode_bit`` fill at import.
    """
    label_idx, k = rng.sample(alice.weights)
    phi_idx, k = rng.sample(_HALF, k)
    basis_idx, k = (0, k) if bob.basis_mode is BasisMode.ALWAYS_Z else rng.sample(_HALF, k)

    label = _LABELS[label_idx]
    if eve is not None:
        label, k = eve.tap(label, rng, k)
    outcome_idx, _ = rng.sample(RECEIVED[label][phi_idx][basis_idx], k)

    return ((label_idx * 2 + phi_idx) * 2 + basis_idx) * 4 + outcome_idx


@dataclass(frozen=True)
class Transcript:
    """A session: its seed, its config and the kind index of each round, one byte per round.

    ``kinds`` is the only per-round state: records, declarations and both keys derive from it
    through the per-kind columns.  Its 64 ``kind_counts`` are taken once, when the transcript
    is built, and every summary figure is a masked sum of them."""

    seed: int
    config: dict
    kinds: bytes
    kind_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.kinds) is not bytes:
            raise ValueError("kinds must be bytes of kind indices below 64, "
                             f"got a {type(self.kinds).__name__}")
        # the one pass over the kinds: ``np.bincount`` copies them to 8-byte ``intp``, so by blocks
        kinds, counts = np.frombuffer(self.kinds, np.uint8), np.zeros(256, np.intp)
        for start in range(0, len(kinds), _ROUND_BLOCK):
            counts += np.bincount(kinds[start:start + _ROUND_BLOCK], minlength=256)
        if counts[len(_KINDS):].any():  # a kind above 63 counts past index 63
            first = int(np.argmax(kinds >= len(_KINDS)))
            raise ValueError("kinds must be bytes of kind indices below 64, "
                             f"round {first} has kind {kinds[first]}")
        object.__setattr__(self, "kind_counts", counts[:len(_KINDS)])
        self.kind_counts.flags.writeable = False

    def __reduce__(self) -> tuple:
        return Transcript, (self.seed, self.config, self.kinds)  # pickle and copy recount

    @property
    def rounds(self) -> list[RoundRecord]:
        """Each round's record, in round order.  ``perfbench/bench.py`` reads it to count key
        mismatches."""
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
        """Kept rounds over all rounds (0 with none), read from ``kind_counts``."""
        return int(self.kind_counts[_KEPT].sum()) / max(len(self.kinds), 1)

    def abort_counts(self) -> dict[StateLabel, int]:
        """Aborted rounds of each label, in ``StateLabel`` order, read from ``kind_counts``."""
        return {label: int(self.kind_counts[~_KEPT & (_LABEL_INDEX == i)].sum())
                for i, label in enumerate(_LABELS)}

    def decode_failures(self) -> int:
        """Kept rounds Bob cannot decode: none, since every kept kind decodes (``_kind``).

        ``perfbench/bench.py`` calls it, and reads the ``decode_failures`` key that ``cli``
        fills from it in ``run --json``."""
        return 0

    def key_errors(self) -> tuple[int, int]:
        """(mismatched, decoded) from ``kind_counts``: kept rounds whose bits differ; kept rounds."""
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

    Round ``i`` is ``run_round`` of the ``i``-th generator of ``Rng.streams``,
    so it draws only from stream ``i`` of ``seed``.  Rounds run in order on
    the calling thread, and their kind indices go straight into the bytes.
    """
    for key, value in (("n_rounds", n_rounds), ("seed", seed)):
        if not is_json_int(value):  # the rule load_transcript reads the header by
            raise ConfigError(f"{key} must be an integer, got {value!r} of type {type(value).__name__}")
    if n_rounds < 1:
        raise ConfigError(f"n_rounds must be >= 1, got {n_rounds}")

    # map looks run_round up by its module-global name when the session starts, so a
    # wrapper installed there (perfbench/tracer.py counts rounds with one) runs every round
    return Transcript(seed, _config_snapshot(n_rounds, alice, bob, eve),
                      bytes(map(run_round, repeat(alice), repeat(bob), repeat(eve),
                                Rng.streams(seed, n_rounds))))


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


#: The keys of a round line after ``round_index``, in the order they are written.
_ROUND_KEYS = ("label", "phi", "basis", "port", "spin",
               "verdict", "alice_bit", "bob_bit", "decode_failed")


#: The header line is read with this cap, newline included, so a longer first line is refused
#: without being held whole.  No header ``run`` writes comes near it: with a seed and
#: ``n_rounds`` of 4300 digits, the interpreter's limit for reading an integer, and every float
#: at its longest repr, a header is under 9000 characters.
_HEADER_LIMIT = 1 << 14


def _header_line(seed: int, config: dict) -> str:
    """The header line ``save_transcript`` writes, newline included."""
    header = {"record": "header", "version": TRANSCRIPT_VERSION, "seed": seed, "config": config}
    return json.dumps(header, separators=(",", ":")) + "\n"


#: Every round line starts with these bytes and continues with its index.
_ROUND_HEAD = '{"record":"round","round_index":'
#: The fields of each kind's round line after ``round_index``, as written, by kind index.
_WRITTEN = tuple(dict(zip(_ROUND_KEYS, (label.value, phi.value, basis.value, outcome.port.value,
                                        outcome.spin.value, verdict.value, *bits)))
                 for label, phi, basis, outcome, verdict, *bits in _KINDS)
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


def _differs(what: str, line: int, column: int, expected: str, found: str) -> ParseError:
    """The error for ``what`` on line ``line``, which first differs from the text ``save_transcript``
    writes at ``column``: that text and the text found from there, 40 characters of each at most."""
    return ParseError(f"{what} differs from its canonical text at column {column}: "
                      f"expected {expected[:40]!r}, found {found[:40]!r}", line)


def _round_refused(text: str, index: int, n_rounds: int, line: int) -> ParseError:
    """The error for ``text``, read at the start of line ``line`` where round ``index`` was due:
    the end of the file, a footer before the last announced round, or else the first column at
    which it differs from the closest of round ``index``'s 64 canonical lines."""
    if not text:
        return ParseError("transcript ended before footer record", line)
    if text.startswith(_FOOTER_HEAD):
        return ParseError(f"header announces {n_rounds} rounds, found {index}", line)
    head = f"{_ROUND_HEAD}{index}"
    # of the lines that agree with it the longest, one whose tail it ends with, if any
    closest = head + max(_TAILS, key=lambda tail: (len(commonprefix([head + tail, text])),
                                                   text.endswith(tail)))
    same = len(commonprefix([closest, text]))
    return _differs(f"round {index}", line, same + 1, closest[same:], text[same:])


def save_transcript(transcript: Transcript, dest: str | Path | IO[str]) -> None:
    """Write a transcript as line-delimited JSON (.qkdlog).

    A round's line is ``_ROUND_HEAD``, its index and a tail holding every
    other field, ``_TAILS[kind]`` of its kind index, rendered at import.  The
    lines of each ``_ROUND_BLOCK`` rounds are joined into one write.  The footer is
    written as ``_footer_parts`` of the same kinds renders it, part by part.
    """
    with (open(dest, "w", encoding="utf-8") if isinstance(dest, (str, Path))
          else nullcontext(dest)) as fh:
        fh.write(_header_line(transcript.seed, transcript.config))
        kinds = transcript.kinds
        for start in range(0, len(kinds), _ROUND_BLOCK):
            fh.write("".join([f"{_ROUND_HEAD}{i}{_TAILS[kind]}"
                              for i, kind in enumerate(kinds[start:start + _ROUND_BLOCK], start)]))
        for part in _footer_parts(kinds):
            fh.write(part)
        fh.write("\n")


def load_transcript(src: str | Path | IO[str]) -> Transcript:
    """Parse a .qkdlog file back into a Transcript.

    A file loads exactly when ``save_transcript`` of what it loads writes the
    same bytes, and the header's ``version``, ``seed`` and ``n_rounds`` are
    JSON integers.  No read hands out more than ``_HEADER_LIMIT`` characters,
    one footer part, or one more than the longest canonical round line.
    Raises ParseError at the first line that differs, naming the header, the
    round or the footer, the first differing column, and the expected and
    found text; also on malformed header JSON, a transcript that ends early,
    and text that is not UTF-8.
    """
    with (open(src, encoding="utf-8", newline="\n") if isinstance(src, (str, Path))
          else nullcontext(src)) as fh:
        try:
            return _read_transcript(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(f"transcript is not UTF-8 text "
                             f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None


def _read_transcript(fh: IO[str]) -> Transcript:
    """``load_transcript`` of an open text stream."""
    raw = fh.readline(_HEADER_LIMIT)
    if not raw:
        raise ParseError("empty transcript, missing header record", 1)
    if len(raw) == _HEADER_LIMIT and not raw.endswith("\n"):
        raise ParseError(f"header longer than {_HEADER_LIMIT - 1} characters", 1)
    header = read_json(raw.strip(), 1)
    if header.get("record") != "header":
        raise ParseError(f"expected header record, got {header.get('record')!r}", 1)
    # JSON integers only: True and 1.0 compare equal to 1
    version, config = header.get("version"), header.get("config")
    if not is_json_int(version) or version != TRANSCRIPT_VERSION:
        raise ParseError(f"unsupported transcript version {version!r}", 1)
    if not isinstance(config, dict):
        raise ParseError(f"header needs a config object, got {config!r}", 1)
    for key, value in (("seed", header.get("seed")), ("n_rounds", config.get("n_rounds"))):
        if not is_json_int(value):
            raise ParseError(f"header needs an integer {key}, got {value!r}", 1)
    # the config keeps the file's key order, so only the spelling can differ
    canonical = _header_line(header["seed"], config)
    if raw != canonical:
        same = len(commonprefix([canonical, raw]))
        raise _differs("header", 1, same + 1, canonical[same:], raw[same:])

    n_rounds = config["n_rounds"]
    # one character more than the longest canonical round line: a longer line is never read whole
    limit = len(f"{_ROUND_HEAD}{max(n_rounds - 1, 0)}") + max(map(len, _TAILS)) + 1
    kinds = bytearray()
    while len(kinds) < n_rounds:
        # round i is on line i + 2; a block never reads past the last announced round's line
        block = list(map(fh.readline, repeat(limit, min(_ROUND_BLOCK, n_rounds - len(kinds)))))
        taken = _canonical_rounds(block, kinds)
        if taken < len(block):
            raise _round_refused(block[taken], len(kinds), n_rounds, len(kinds) + 2)
    kinds, line_no, column = bytes(kinds), n_rounds + 2, 0
    for part in chain(_footer_parts(kinds), ["\n"]):
        got = fh.readline(len(part))
        if got != part:
            if not (column or got):
                raise ParseError("transcript ended before footer record", line_no)
            same = len(commonprefix([part, got]))
            found = got[same:]
            if len(got) == len(part) and not got.endswith("\n"):  # the line goes on
                found += fh.readline(40)
            raise _differs("footer", line_no, column + same + 1, part[same:], found)
        column += len(part)
    if text := fh.readline(40):
        raise ParseError(f"text after the footer: {text!r}", line_no + 1)
    return Transcript(seed=header["seed"], config=config, kinds=kinds)
