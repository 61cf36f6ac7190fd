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
            obj.setdefault("decode_failed", False)  # a round line may leave it out
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


class _Reads(io.StringIO):
    """A text stream that keeps the length of the longest string a read or iteration hands out."""

    longest = 0

    def readline(self, size=-1):
        line = super().readline(size)
        self.longest = max(self.longest, len(line))
        return line

    def readlines(self, hint=-1):
        lines = super().readlines(hint)
        self.longest = max([self.longest, *map(len, lines)])
        return lines

    def __next__(self):
        line = super().__next__()
        self.longest = max(self.longest, len(line))
        return line


class TestBulkReadEdges:
    """Single mutations at the edges of ``load_transcript``'s bulk read of canonical lines.

    The transcript has 12 000 tapped rounds, so its round lines span 12 blocks of
    ``_ROUND_BLOCK`` lines and every index width up to five digits.  A mutation is made
    at the first round after the header, at both sides of a block boundary, at both sides
    of each change of index width (where the expected heads grow a digit) and at the last
    round.  ``_as_read`` decides as in the fuzz above, applied to the changed lines only:
    all others are the same on both sides.
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
        # the 1-based last line of each block of rounds, as load_transcript reads them after
        # the header: ``_ROUND_BLOCK`` lines, and none past the last announced round's
        block = protocol._ROUND_BLOCK
        block_ends = [1 + min(end, self.ROUNDS) for end in range(block, self.ROUNDS + block, block)]
        # mutations are made at both sides of the third block's last line, so a fourth follows
        assert len(block_ends) >= 4
        lines = text.split("\n")[:-1]
        return session, lines, _as_read(lines), block_ends

    @staticmethod
    def _turning_lines(block_ends) -> list[int]:
        """The 1-based lines a mutation is made at; round ``i`` is on line ``i + 2``."""
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

    @pytest.mark.parametrize("mutation", ["index_digit", "crlf", "trailing_space", "retyped_bit",
                                          "head_dropped"])
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
            elif mutation == "head_dropped":  # exactly the line's entry of _TAILS
                edited = line[len(head):]
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
        parsed, taken = [], []
        read_json, canonical_rounds = protocol.read_json, protocol._canonical_rounds
        monkeypatch.setattr(protocol, "read_json",
                            lambda text, line: parsed.append(line) or read_json(text, line))
        monkeypatch.setattr(protocol, "_canonical_rounds",
                            lambda block, kinds: taken.append(canonical_rounds(block, kinds))
                            or taken[-1])
        assert self._load(lines) == session
        assert parsed == [1]  # the header; every round line and the footer are matched by text
        # one bulk call per block takes every round line of it, and no block holds the
        # footer: it is matched as it is read
        assert len(taken) == len(block_ends)
        assert sum(taken) == self.ROUNDS

    @pytest.mark.parametrize("blank", [False, True])
    def test_short_round_lines_across_blocks_leave_the_footer_read_in_parts(self, big,
                                                                           monkeypatch, blank):
        # the last 1500 round lines, over two blocks, written without decode_failed: each is
        # shorter than any canonical line, and, with a blank line among them or not, the
        # blocks end by the last announced round and the footer is matched as it is read
        session, lines, _, _ = big
        short = [line.replace(',"decode_failed":false', "") for line in lines[-1501:-1]]
        assert all(map(str.__ne__, short, lines[-1501:-1]))
        head = lines[:-1501] + short[:700] + [""] * blank + short[700:]
        parsed = []
        read_json = protocol.read_json
        monkeypatch.setattr(protocol, "read_json",
                            lambda raw, line: parsed.append(line) or read_json(raw, line))
        fh = _Reads("\n".join(head + [lines[-1]]) + "\n")
        assert load_transcript(fh) == session
        first = len(lines) - 1500  # the first short line's 1-based number
        assert parsed == [1, *range(first, first + 700), *range(first + 700 + blank, len(head) + 1)]
        assert 0 < fh.longest < len(lines[-1])


class TestFooterInParts:
    """With ``_ROUND_BLOCK`` at 3 rounds, the 40-round footer spans many parts.

    A canonical file still round-trips byte for byte with only its header parsed as JSON;
    a footer changed in any one part, at a part boundary or past its last part is refused
    at its line."""

    @pytest.fixture
    def parts(self, canonical, monkeypatch):
        monkeypatch.setattr(protocol, "_ROUND_BLOCK", 3)
        session, _ = canonical
        parts = list(protocol._footer_parts(session.kinds))
        assert len(parts[1:-2]) >= 4  # declaration parts, between the head and the two keys
        return parts

    def test_a_footer_in_many_parts_round_trips_matched_by_text(self, canonical, parts,
                                                               monkeypatch):
        session, lines = canonical
        text = "\n".join(lines) + "\n"
        parsed = []
        read_json = protocol.read_json
        monkeypatch.setattr(protocol, "read_json",
                            lambda raw, line: parsed.append(line) or read_json(raw, line))
        loaded = load_transcript(io.StringIO(text))
        assert loaded == session
        assert parsed == [1]
        assert lines[-1] == "".join(parts)
        out = io.StringIO()
        save_transcript(loaded, out)
        assert out.getvalue() == text

    @pytest.mark.parametrize("edit, message", [
        ("last_index", "footer declarations does not match the round records"),
        ("last_label", "footer declarations does not match the round records"),
        ("boundary_comma", "invalid JSON (Expecting ',' delimiter)"),
        ("key_digit", "footer alice_key does not match the round records"),
        ("left_over", "footer extra does not match the round records"),
    ])
    def test_a_footer_changed_in_one_part_is_refused_at_its_line(self, canonical, parts, edit,
                                                               message):
        _, lines = canonical
        parts = list(parts)
        last = len(parts) - 3  # the last declaration part
        if edit == "last_index":
            index = parts[last].rsplit("[", 1)[1].split(",")[0]
            parts[last] = parts[last].replace(f"[{index},", f"[{int(index) + 1},")
        elif edit == "last_label":
            label = parts[last].rsplit(",", 1)[1]
            other = '"psi"]' if label != '"psi"]' else '"phi"]'
            parts[last] = parts[last][:-len(label)] + other
        elif edit == "boundary_comma":
            assert parts[2].startswith(",[")
            parts[2] = parts[2][1:]
        elif edit == "key_digit":
            digit = parts[-2].index('"', len('],"alice_key":"')) - 1
            flipped = "1" if parts[-2][digit] == "0" else "0"
            parts[-2] = parts[-2][:digit] + flipped + parts[-2][digit + 1:]
        else:
            parts[-1] = parts[-1][:-1] + ',"extra":1}'
        footer = "".join(parts)
        assert footer != lines[-1]
        with pytest.raises(ParseError) as exc:
            load_transcript(io.StringIO("\n".join(lines[:-1] + [footer]) + "\n"))
        assert str(exc.value) == f"line {len(lines)}: {message}"

    @staticmethod
    def _edge(name: str, lines: list[str], parts: list[str]) -> str:
        """The canonical file with one edge at or around its footer, as text.  A footer that
        differs in a later part is ``test_a_footer_changed_in_one_part_is_refused_at_its_line``'s."""
        head, footer = lines[:-1], lines[-1]
        if name.startswith("cut_after_part_"):  # the file ends at a part boundary
            return "\n".join(head + ["".join(parts[:int(name.rsplit("_", 1)[1])])])
        if name == "cut_at_boundary_then_newline":
            return "\n".join(head + ["".join(parts[:2])]) + "\n"
        if name == "trailing_spaces":
            return "\n".join(lines) + "  \n"
        if name == "crlf":
            return "\r\n".join(lines) + "\r\n"
        if name == "no_final_newline":
            return "\n".join(lines)
        if name == "leading_space":
            return "\n".join(head + [" " + footer]) + "\n"
        if name == "round_after":
            return "\n".join(lines + [lines[1]]) + "\n"
        if name == "second_footer":
            return "\n".join(lines + [footer]) + "\n"
        if name == "text_after":
            return "\n".join(lines + ["text"]) + "\n"
        if name == "text_on_its_line":
            return "\n".join(head + [footer + " text"]) + "\n"
        if name == "blank_lines_around":
            return "\n".join(head + ["", footer, "", " "]) + "\n"
        # the last 12 rounds' lines written without decode_failed are shorter than any
        # canonical line, but still one line a round
        short = [line.replace(',"decode_failed":false', "") for line in head[-12:]]
        if name == "short_last_rounds":
            return "\n".join(head[:-12] + short + [footer]) + "\n"
        assert name == "blank_among_short_last_rounds"
        return "\n".join(head[:-12] + short[:6] + [""] + short[6:] + [footer]) + "\n"

    #: Each edge's outcome: None where the file loads, else the error's message and its line,
    #: counted from the footer's (0); a footer read a part at a time or whole gives the same.
    EDGES = {
        "cut_after_part_1": ("invalid JSON (Expecting value)", 0),
        "cut_after_part_3": ("invalid JSON (Expecting ',' delimiter)", 0),
        "cut_after_part_14": ("invalid JSON (Expecting ',' delimiter)", 0),
        "cut_at_boundary_then_newline": ("invalid JSON (Expecting ',' delimiter)", 0),
        "trailing_spaces": None,
        "crlf": None,
        "no_final_newline": None,
        "leading_space": None,
        "round_after": ("round record after footer", 1),
        "second_footer": ("duplicate footer record", 1),
        "text_after": ("invalid JSON (Expecting value)", 1),
        "text_on_its_line": ("invalid JSON (Extra data)", 0),
        "blank_lines_around": None,
        "short_last_rounds": None,
        "blank_among_short_last_rounds": None,
    }

    @pytest.mark.parametrize("name", EDGES)
    def test_an_edge_at_the_footer_loads_or_fails_at_its_line(self, canonical, parts, name):
        session, lines = canonical
        text = self._edge(name, lines, parts)
        if self.EDGES[name] is None:
            assert load_transcript(io.StringIO(text)) == session
            return
        message, offset = self.EDGES[name]
        with pytest.raises(ParseError) as exc:
            load_transcript(io.StringIO(text))
        assert str(exc.value) == f"line {len(lines) + offset}: {message}"

    @pytest.mark.parametrize("name", ["trailing_spaces", "crlf", "no_final_newline",
                                      "blank_lines_around", "short_last_rounds",
                                      "blank_among_short_last_rounds"])
    def test_no_read_hands_out_the_footer_whole(self, canonical, parts, name):
        # a block of round lines holds no more lines than rounds are left, however they are
        # spelled, so it ends by the last announced round; the footer after it is read a
        # part at a time
        session, lines = canonical
        fh = _Reads(self._edge(name, lines, parts))
        assert load_transcript(fh) == session
        assert 0 < fh.longest < len(lines[-1])

    @pytest.mark.parametrize("name, parses", [("leading_space", 1), ("short_last_rounds", 0)])
    def test_a_footer_the_streamed_read_does_not_take_is_parsed_once(self, canonical, parts,
                                                                    monkeypatch, name, parses):
        # the footer read a part at a time is matched by text, after round lines of any
        # spelling; one with leading whitespace is parsed once and compared by keys
        session, lines = canonical
        parsed = []
        read_json = protocol.read_json
        monkeypatch.setattr(protocol, "read_json",
                            lambda raw, line: parsed.append(line) or read_json(raw, line))
        assert load_transcript(io.StringIO(self._edge(name, lines, parts))) == session
        assert parsed.count(len(lines)) == parses
