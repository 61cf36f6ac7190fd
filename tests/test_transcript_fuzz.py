"""Seeded mutation fuzz of .qkdlog loading.

Each mutant changes one thing in a canonical tapped transcript: it retypes a
value, changes a string's case, reorders, drops, duplicates or renames a key,
respaces a line, drops, duplicates or inserts a line, or flips a footer digit.
The test's own oracle calls a mutant typed-equal when its non-blank lines
parse to the same JSON objects as the original's, compared as sorted
``json.dumps`` text (so ``1``, ``1.0`` and ``true`` differ), a round line
without ``decode_failed`` reading it as ``false``.  A typed-equal mutant must
load to the original transcript; every other one must raise ``ParseError`` at
the line it changed (for a dropped line: the line now in its place, or the
end of the file).  Any other exception fails the test.
"""

import io
import json
import random
from collections import Counter

import pytest

from pathspin import (
    AlicePolicy,
    BobPolicy,
    InterceptResend,
    PhaseChoice,
    SpinBasis,
    Verdict,
    load_transcript,
    run_session,
    save_transcript,
)
from pathspin import protocol
from pathspin.errors import ParseError

SEEDS = range(5)
MUTANTS_PER_SEED = 500


@pytest.fixture(scope="module")
def canonical():
    """A 40-round session tapped with fraction 0.5, and the lines of its transcript."""
    session = run_session(n_rounds=40, alice=AlicePolicy.family(0.7), bob=BobPolicy(),
                          eve=InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5), seed=13)
    out = io.StringIO()
    save_transcript(session, out)
    return session, out.getvalue().split("\n")[:-1]


def _as_read(lines: list[str]) -> list[str] | None:
    """The oracle: each non-blank line's object as sorted JSON text, or None if one is no JSON."""
    objects = []
    for line in lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            return None
        if isinstance(obj, dict) and obj.get("record") == "round":
            obj.setdefault("decode_failed", False)  # how early files were written
        objects.append(json.dumps(obj, sort_keys=True))
    return objects


def _dump(items: list, comma: str = ",", colon: str = ":") -> str:
    """A JSON object of ``items`` pairs in their order, duplicate keys kept as given."""
    return "{" + comma.join(f"{json.dumps(k)}{colon}{json.dumps(v, separators=(',', ':'))}"
                            for k, v in items) + "}"


def _retyped(value, rng: random.Random):
    """``value`` with another JSON type, or a string in another case; None for an object."""
    if type(value) is bool:
        return rng.choice([int(value), float(value), str(value).lower()])
    if type(value) is int:
        return rng.choice([float(value), bool(value), str(value)])
    if value is None:
        return rng.choice([0, False, "null"])
    if type(value) is str:
        return rng.choice([value.upper(), value.title(), value.swapcase()])
    if type(value) is list and value:
        i = rng.randrange(len(value))
        inner = _retyped(value[i], rng)
        return None if inner is None else value[:i] + [inner] + value[i + 1:]
    return None


def _items(line: str) -> list:
    return list(json.loads(line).items())


# Each mutation takes the lines and a generator and returns the mutant's lines
# and the 1-based line at which a refusal must point.

def drop_line(lines, rng):
    j = rng.randrange(len(lines))
    return lines[:j] + lines[j + 1:], j + 1


def duplicate_line(lines, rng):
    j = rng.randrange(len(lines))
    return lines[:j + 1] + [lines[j]] + lines[j + 1:], j + 2


def insert_blank_line(lines, rng):
    j = rng.randrange(len(lines) + 1)
    return lines[:j] + [rng.choice(["", " ", "\t", "\r"])] + lines[j:], j + 1


def _edit_line(lines, rng, edit):
    """``lines`` with one edited, the footer a third of the time so that its values get a share."""
    j = len(lines) - 1 if rng.random() < 1 / 3 else rng.randrange(len(lines) - 1)
    return lines[:j] + [edit(lines[j])] + lines[j + 1:], j + 1


def retype_value(lines, rng):
    def edit(line):
        items = _items(line)
        k = rng.choice([k for k, (_, v) in enumerate(items) if type(v) is not dict])
        items[k] = (items[k][0], _retyped(items[k][1], rng))
        return _dump(items)
    return _edit_line(lines, rng, edit)


def reorder_keys(lines, rng):
    def edit(line):
        items = _items(line)
        rng.shuffle(items)
        return _dump(items)
    return _edit_line(lines, rng, edit)


def respace(lines, rng):
    def edit(line):
        comma, colon = rng.choice([(", ", ": "), (" ,", " :"), ("\t,", ":\t"), (",", ":")])
        return (rng.choice(["", " ", "\t"]) + _dump(_items(line), comma, colon)
                + rng.choice(["", " ", "\t", "\r", " \r"]))
    return _edit_line(lines, rng, edit)


def drop_key(lines, rng):
    def edit(line):
        items = _items(line)
        del items[rng.randrange(len(items))]
        return _dump(items)
    return _edit_line(lines, rng, edit)


def duplicate_key(lines, rng):
    """A second copy of a key, before or after it, holding its value or a retyped one."""
    def edit(line):
        items = _items(line)
        k = rng.randrange(len(items))
        key, value = items[k]
        other = _retyped(value, rng)
        copy = (key, value if other is None or rng.random() < 0.5 else other)
        items.insert(rng.choice([k, k + 1]), copy)
        return _dump(items)
    return _edit_line(lines, rng, edit)


def rename_key(lines, rng):
    def edit(line):
        items = _items(line)
        k = rng.randrange(len(items))
        items[k] = (rng.choice([str.upper, str.title])(items[k][0]), items[k][1])
        return _dump(items)
    return _edit_line(lines, rng, edit)


def flip_footer_digit(lines, rng):
    footer = lines[-1]
    i = rng.choice([i for i, c in enumerate(footer) if c.isdigit()])
    digit = rng.choice([d for d in "0123456789" if d != footer[i]])
    return lines[:-1] + [footer[:i] + digit + footer[i + 1:]], len(lines)


MUTATIONS = (drop_line, duplicate_line, insert_blank_line, retype_value, reorder_keys,
             respace, drop_key, duplicate_key, rename_key, flip_footer_digit)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_mutant_loads_exactly_when_typed_equal(canonical, seed):
    session, lines = canonical
    original = _as_read(lines)
    rng = random.Random(seed)
    outcomes = Counter()
    for n in range(MUTANTS_PER_SEED):
        mutate = rng.choice(MUTATIONS)
        mutant, where = mutate(lines, rng)
        typed_equal = _as_read(mutant) == original
        context = (f"mutant {n} of seed {seed} ({mutate.__name__}), line {where}: "
                   f"{mutant[where - 1] if where <= len(mutant) else '<end of file>'!r}")
        try:
            loaded = load_transcript(io.StringIO("\n".join(mutant) + "\n"))
        except ParseError as exc:
            assert not typed_equal, f"{context} refused: {exc}"
            assert exc.line == where, f"{context} refused at another line: {exc}"
            outcomes["refused"] += 1
        else:
            assert typed_equal, f"{context} loaded"
            assert loaded == session, f"{context} loaded as another transcript"
            outcomes["loaded"] += 1
    # both outcomes are reached, so neither branch above is vacuous
    assert outcomes["refused"] > MUTANTS_PER_SEED // 4
    assert outcomes["loaded"] > MUTANTS_PER_SEED // 10


class TestBulkReadEdges:
    """Single mutations where ``load_transcript``'s bulk read of canonical lines turns.

    The transcript has 12 000 tapped rounds, so its text spans many blocks of
    ``_BLOCK`` characters and every index width up to five digits.  A mutation is made
    at the first round after the header, at both sides of a block boundary, at both sides
    of each change of index width and at the last round.  ``_as_read`` decides as in the
    fuzz above, applied to the changed lines only: all others are the same on both sides.
    A round line given another kind's canonical tail is typed-unequal but canonical, so
    it is checked against the footer instead.
    """

    ROUNDS = 12_000

    @pytest.fixture(scope="class")
    def big(self):
        session = run_session(n_rounds=self.ROUNDS, alice=AlicePolicy.family(0.7),
                              bob=BobPolicy(), eve=InterceptResend(PhaseChoice.PHI_0,
                                                                   SpinBasis.Y, 0.5), seed=17)
        out = io.StringIO()
        save_transcript(session, out)
        text = out.getvalue()
        block_ends, reader = [], io.StringIO(text)
        while block := reader.readlines(protocol._BLOCK):
            block_ends.append((block_ends[-1] if block_ends else 0) + len(block))
        assert len(block_ends) > 20
        lines = text.split("\n")[:-1]
        return session, lines, _as_read(lines), block_ends

    @staticmethod
    def _turning_lines(block_ends) -> list[int]:
        """The 1-based lines where the bulk read turns; round ``i`` is on line ``i + 2``."""
        boundary = block_ends[2]  # the last line of the third block; the fourth starts after it
        widths = [line for index in (9, 99, 999, 9999) for line in (index + 2, index + 3)]
        return [2, boundary, boundary + 1, *widths, TestBulkReadEdges.ROUNDS + 1]

    @staticmethod
    def _load(lines: list[str], end: str = "\n"):
        return load_transcript(io.StringIO("\n".join(lines) + end))

    def _expect(self, big, where, edited, cut=False, end="\n"):
        """Load the lines with line ``where`` replaced by ``edited`` and, if ``cut``, none after
        it, the file ending in ``end``: a typed-equal mutant loads to the session, any other
        fails at line ``where`` (past the end of a cut file, if only the footer is missing)."""
        session, lines, original, _ = big
        mutant = lines[:where - 1] + [edited] + ([] if cut else lines[where:])
        typed_equal = _as_read([edited]) == original[where - 1:None if cut else where]
        try:
            loaded = self._load(mutant, end)
        except ParseError as exc:
            assert not typed_equal, f"line {where} refused: {exc}"
            only_footer_missing = cut and _as_read([edited]) == original[where - 1:where]
            expected = where + 1 if only_footer_missing else where
            assert exc.line == expected, f"line {where} refused at another line: {exc}"
        else:
            assert typed_equal, f"line {where} loaded"
            assert loaded == session, f"line {where} loaded as another transcript"

    @pytest.mark.parametrize("mutation", ["index_digit", "crlf", "trailing_space", "retyped_bit"])
    def test_a_round_line_mutant_loads_exactly_when_typed_equal(self, big, mutation):
        _, lines, _, block_ends = big
        for where in self._turning_lines(block_ends):
            line = lines[where - 1]
            head = protocol._ROUND_HEAD + str(where - 2)
            assert line.startswith(head)
            if mutation == "index_digit":
                edited = head[:-1] + str((int(head[-1]) + 1) % 10) + line[len(head):]
            elif mutation == "crlf":
                edited = line + "\r"
            elif mutation == "trailing_space":
                edited = line + " "
            else:
                bit = '"alice_bit":' + line.split('"alice_bit":')[1][0]
                edited = line.replace(bit, bit + ".0")
            self._expect(big, where, edited)

    def test_another_kinds_tail_is_read_as_that_kind(self, big):
        session, lines, _, block_ends = big
        for where in self._turning_lines(block_ends):
            index = where - 2
            verdict = protocol._KINDS[session.kinds[index]][4]
            other = next(k for k in range(64) if protocol._KINDS[k][4] is not verdict)
            kinds = session.kinds[:index] + bytes([other]) + session.kinds[index + 1:]
            edited = protocol._ROUND_HEAD + str(index) + protocol._TAILS[other][:-1]
            mutant = lines[:where - 1] + [edited] + lines[where:]
            # the old footer no longer matches: a kept round became aborted or the reverse
            with pytest.raises(ParseError, match="footer .* does not match") as exc:
                self._load(mutant)
            assert exc.value.line == len(lines)
            # with the footer of the new kinds, the file loads as those kinds
            mutant[-1] = protocol._footer_line(kinds)
            assert self._load(mutant).kinds == kinds

    def test_a_file_cut_after_a_line_without_its_newline(self, big):
        _, lines, _, block_ends = big
        for where in self._turning_lines(block_ends) + [len(lines)]:
            # ends before the footer, or (for the footer itself) loads
            self._expect(big, where, lines[where - 1], cut=True, end="")
            # one more character after a canonical tail is no JSON, refused at its line
            self._expect(big, where, lines[where - 1] + "}", cut=True, end="")

    def test_a_footer_canonical_for_other_kinds_is_refused(self, big):
        session, lines, _, _ = big
        aborted = [i for i, k in enumerate(session.kinds)
                   if protocol._KINDS[k][4] is Verdict.ABORT]
        index = aborted[len(aborted) // 2]
        label = protocol._KINDS[session.kinds[index]][0]
        other = next(k for k in range(64) if protocol._KINDS[k][4] is Verdict.ABORT
                     and protocol._KINDS[k][0] is not label)
        kinds = session.kinds[:index] + bytes([other]) + session.kinds[index + 1:]
        mutant = lines[:-1] + [protocol._footer_line(kinds)]
        assert mutant[-1] != lines[-1]
        with pytest.raises(ParseError, match="footer declarations does not match") as exc:
            self._load(mutant)
        assert exc.value.line == len(lines)

    def test_a_canonical_footer_then_a_duplicate_is_refused(self, big):
        _, lines, _, _ = big
        with pytest.raises(ParseError, match="duplicate footer record") as exc:
            self._load(lines + [lines[-1]])
        assert exc.value.line == len(lines) + 1

    def test_a_canonical_file_parses_only_its_header_as_json(self, big, monkeypatch):
        session, lines, _, block_ends = big
        parsed, tested = [], []
        read_json, canonical_kind = protocol.read_json, protocol._canonical_kind
        monkeypatch.setattr(protocol, "read_json",
                            lambda text, line: parsed.append(line) or read_json(text, line))
        monkeypatch.setattr(protocol, "_canonical_kind",
                            lambda raw, index: tested.append(index) or canonical_kind(raw, index))
        assert self._load(lines) == session
        assert parsed == [1]  # the header; every round line and the footer are matched by text
        # the bulk run stops before the footer, so no round is tested one line at a time:
        # only the footer, once, where the line loop takes over
        assert tested == [self.ROUNDS]
