"""Seeded mutation fuzz of .qkdlog loading.

Each mutant changes one thing in a canonical tapped transcript: it retypes a
value, changes a string's case, reorders, drops, duplicates or renames a key,
respaces a line, drops, duplicates or inserts a line, or flips a footer digit.
A mutant must load exactly when its text is the original's, byte for byte,
and then to the original transcript, which saves back to that text.  Every
other mutant must raise ``ParseError`` at the line it changed (for a dropped
line: the line now in its place, or the end of the file).  Any other
exception fails the test.
"""

import ast
import io
import json
import random
import re
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


def _limit(n_rounds: int) -> int:
    """One character more than the longest canonical round line of a session of ``n_rounds``."""
    return len(protocol._ROUND_HEAD + str(n_rounds - 1)) + max(map(len, protocol._TAILS)) + 1


_DIFFERS = re.compile(r"line \d+: .+ differs from its canonical text at column (\d+): "
                      r"expected ('.*'|\".*\"), found ('.*'|\".*\")")


def _assert_differs(error: ParseError, canonical: str, found: str) -> None:
    """``error`` names the first column at which line ``found`` differs from ``canonical``, both
    newline included, and no more than 40 characters of each from there."""
    match = _DIFFERS.fullmatch(str(error))
    assert match, error
    column = int(match[1])
    expected, got = map(ast.literal_eval, match.group(2, 3))
    assert canonical[:column - 1] == found[:column - 1], error
    assert canonical[column - 1] != found[column - 1:column], error
    assert canonical[column - 1:].startswith(expected) and 0 < len(expected) <= 40, error
    assert found[column - 1:].startswith(got) and len(got) <= 40, error


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
def test_a_mutant_loads_exactly_when_byte_identical(canonical, seed):
    session, lines = canonical
    rng = random.Random(seed)
    outcomes = Counter()
    for n in range(MUTANTS_PER_SEED):
        mutate = rng.choice(MUTATIONS)
        mutant, where = mutate(lines, rng)
        text = "\n".join(mutant) + "\n"
        context = (f"mutant {n} of seed {seed} ({mutate.__name__}), line {where}: "
                   f"{mutant[where - 1] if where <= len(mutant) else '<end of file>'!r}")
        try:
            loaded = load_transcript(io.StringIO(text))
        except ParseError as exc:
            assert mutant != lines, f"{context} refused: {exc}"
            assert exc.line == where, f"{context} refused at another line: {exc}"
            outcomes[f"refused {mutate.__name__}"] += 1
        else:
            assert mutant == lines, f"{context} loaded"
            assert loaded == session, f"{context} loaded as another transcript"
            again = io.StringIO()
            save_transcript(loaded, again)
            assert again.getvalue() == text, f"{context} saved back to other text"
            outcomes["loaded"] += 1  # an edit that changed no byte, e.g. keys shuffled in place
    # both outcomes are reached, and every mutation is refused somewhere, the blank line and
    # the respaced header included
    assert 0 < outcomes["loaded"] < MUTANTS_PER_SEED // 10, outcomes
    assert all(outcomes[f"refused {mutate.__name__}"] for mutate in MUTATIONS), outcomes


class _Reads(io.StringIO):
    """A text stream that keeps the length of each string a read or iteration hands out.

    ``load_transcript`` reads with ``readline`` alone; the other two are kept so that a reader
    that iterated the stream would be measured as well."""

    def __init__(self, text: str):
        super().__init__(text)
        self.sizes = []

    def readline(self, size=-1):
        line = super().readline(size)
        self.sizes.append(len(line))
        return line

    def readlines(self, hint=-1):
        lines = super().readlines(hint)
        self.sizes.extend(map(len, lines))
        return lines

    def __next__(self):
        line = super().__next__()
        self.sizes.append(len(line))
        return line

    @property
    def longest_after_the_header(self) -> int:
        """The longest string handed out after the first, the header, which has its own cap; 0
        when the header is the only read."""
        return max(self.sizes[1:], default=0)


class TestBulkReadEdges:
    """Single mutations at the edges of ``load_transcript``'s bulk read of canonical lines.

    The transcript has 12 000 tapped rounds, so its round lines span 12 blocks of
    ``_ROUND_BLOCK`` lines and every index width up to five digits.  A mutation is made
    at the first round after the header, at both sides of a block boundary, at both sides
    of each change of index width (where the expected heads grow a digit) and at the last
    round.  Only the canonical file loads; any other is refused at the line that differs.
    A round line given another kind's canonical tail is canonical, so it is checked against
    the footer instead.
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
        return session, text.split("\n")[:-1], block_ends

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
        it, the file ending in ``end``: the canonical lines load to the session, any others
        fail at line ``where``, at the column where ``edited`` differs from the line it replaces."""
        session, lines, _ = big
        mutant = lines[:where - 1] + [edited] + ([] if cut else lines[where:])
        if mutant == lines and end == "\n":
            assert self._load(mutant, end) == session
            return
        with pytest.raises(ParseError) as exc:
            self._load(mutant, end)
        assert exc.value.line == where, f"line {where} refused at another line: {exc.value}"
        _assert_differs(exc.value, lines[where - 1] + "\n", edited + (end if cut else "\n"))

    @pytest.mark.parametrize("mutation", ["index_digit", "crlf", "trailing_space", "retyped_bit",
                                          "head_dropped"])
    def test_a_round_line_mutant_is_refused_at_its_line(self, big, mutation):
        _, lines, block_ends = big
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
            assert edited != line
            self._expect(big, where, edited)

    def test_another_kinds_tail_is_read_as_that_kind(self, big):
        session, lines, block_ends = big
        for where in self._turning_lines(block_ends):
            index = where - 2
            verdict = protocol._KINDS[session.kinds[index]][4]
            other = next(k for k in range(64) if protocol._KINDS[k][4] is not verdict)
            kinds = session.kinds[:index] + bytes([other]) + session.kinds[index + 1:]
            edited = protocol._ROUND_HEAD + str(index) + protocol._TAILS[other][:-1]
            mutant = lines[:where - 1] + [edited] + lines[where:]
            # the old footer no longer matches: a kept round became aborted or the reverse
            with pytest.raises(ParseError, match="footer differs from its canonical text") as exc:
                self._load(mutant)
            assert exc.value.line == len(lines)
            # with the footer of the new kinds, the file loads as those kinds
            mutant[-1] = protocol._footer_line(kinds)
            assert self._load(mutant).kinds == kinds

    def test_a_file_cut_after_a_line_without_its_newline(self, big):
        _, lines, block_ends = big
        for where in self._turning_lines(block_ends) + [len(lines)]:
            # a round line or the footer without its newline is refused at its line
            self._expect(big, where, lines[where - 1], cut=True, end="")
            # one more character after a canonical line is refused at its line
            self._expect(big, where, lines[where - 1] + "}", cut=True, end="")

    def test_a_footer_canonical_for_other_kinds_is_refused(self, big):
        session, lines, _ = big
        aborted = [i for i, k in enumerate(session.kinds)
                   if protocol._KINDS[k][4] is Verdict.ABORT]
        index = aborted[len(aborted) // 2]
        label = protocol._KINDS[session.kinds[index]][0]
        other = next(k for k in range(64) if protocol._KINDS[k][4] is Verdict.ABORT
                     and protocol._KINDS[k][0] is not label)
        kinds = session.kinds[:index] + bytes([other]) + session.kinds[index + 1:]
        mutant = lines[:-1] + [protocol._footer_line(kinds)]
        assert mutant[-1] != lines[-1]
        with pytest.raises(ParseError) as exc:
            self._load(mutant)
        assert exc.value.line == len(lines)
        _assert_differs(exc.value, lines[-1] + "\n", mutant[-1] + "\n")

    def test_a_canonical_footer_then_a_duplicate_is_refused(self, big):
        _, lines, _ = big
        with pytest.raises(ParseError, match="text after the footer") as exc:
            self._load(lines + [lines[-1]])
        assert exc.value.line == len(lines) + 1

    def test_a_canonical_file_parses_only_its_header_as_json(self, big, monkeypatch):
        session, lines, block_ends = big
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
    def test_short_round_lines_across_blocks_are_refused_at_the_first(self, big, monkeypatch,
                                                                      blank):
        # the last 1500 round lines, over two blocks, written without decode_failed, with a
        # blank line before them or not: the first line that is not canonical is refused at its
        # line, and no read hands out more than one more character than the longest canonical
        # round line
        session, lines, _ = big
        short = [line.replace(',"decode_failed":false', "") for line in lines[-1501:-1]]
        assert all(map(str.__ne__, short, lines[-1501:-1]))
        head = lines[:-1501] + [""] * blank + short
        parsed = []
        read_json = protocol.read_json
        monkeypatch.setattr(protocol, "read_json",
                            lambda raw, line: parsed.append(line) or read_json(raw, line))
        fh = _Reads("\n".join(head + [lines[-1]]) + "\n")
        with pytest.raises(ParseError) as exc:
            load_transcript(fh)
        first = len(lines) - 1500  # the 1-based number of the blank or the first short line
        assert exc.value.line == first
        _assert_differs(exc.value, lines[first - 1] + "\n", ("" if blank else short[0]) + "\n")
        assert parsed == [1]
        assert 0 < fh.longest_after_the_header <= _limit(self.ROUNDS)


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

    @pytest.mark.parametrize("edit", ["last_index", "last_label", "boundary_comma", "key_digit",
                                      "left_over"])
    def test_a_footer_changed_in_one_part_is_refused_at_its_line(self, canonical, parts, edit):
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
        assert exc.value.line == len(lines)
        _assert_differs(exc.value, lines[-1] + "\n", footer + "\n")

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
        # the last 12 rounds' lines written without decode_failed
        short = [line.replace(',"decode_failed":false', "") for line in head[-12:]]
        if name == "short_last_rounds":
            return "\n".join(head[:-12] + short + [footer]) + "\n"
        assert name == "blank_among_short_last_rounds"
        return "\n".join(head[:-12] + short[:6] + [""] + short[6:] + [footer]) + "\n"

    #: Each edge's refusal: the line of the error, counted from the footer's (0), and the start
    #: of its message after the line.
    EDGES = {
        "cut_after_part_1": (0, "footer differs"),
        "cut_after_part_3": (0, "footer differs"),
        "cut_after_part_14": (0, "footer differs"),
        "cut_at_boundary_then_newline": (0, "footer differs"),
        "trailing_spaces": (0, "footer differs"),
        "crlf": (-41, "header differs"),  # the first line
        "no_final_newline": (0, "footer differs"),
        "leading_space": (0, "footer differs"),
        "round_after": (1, "text after the footer: '{\"record\":\"round\","),
        "second_footer": (1, "text after the footer: '{\"record\":\"footer\","),
        "text_after": (1, "text after the footer: 'text\\n'"),
        "text_on_its_line": (0, "footer differs"),
        "blank_lines_around": (0, "footer differs"),  # the blank line before it
        "short_last_rounds": (-12, "round 28 differs"),  # the first short line
        "blank_among_short_last_rounds": (-12, "round 28 differs"),
    }

    @pytest.mark.parametrize("name", EDGES)
    def test_an_edge_at_the_footer_fails_at_its_line(self, canonical, parts, name):
        _, lines = canonical
        text = self._edge(name, lines, parts)
        offset, message = self.EDGES[name]
        with pytest.raises(ParseError) as exc:
            load_transcript(io.StringIO(text))
        line = len(lines) + offset
        assert str(exc.value).startswith(f"line {line}: {message}")
        if "differs" in message:
            _assert_differs(exc.value, lines[line - 1] + "\n",
                            io.StringIO(text).readlines()[line - 1])

    @pytest.mark.parametrize("name", EDGES)
    def test_no_read_hands_out_more_than_a_round_line_or_a_footer_part(self, canonical, parts,
                                                                      name):
        # round lines are read a line's piece at a time, capped one character past the longest
        # canonical one, and the footer a part at a time: neither is ever held whole
        session, lines = canonical
        fh = _Reads(self._edge(name, lines, parts))
        with pytest.raises(ParseError):
            load_transcript(fh)
        bound = max(_limit(len(session.kinds)), *map(len, parts))
        assert fh.longest_after_the_header <= bound < len(lines[-1])  # 0 if refused at the header

    @pytest.mark.parametrize("name", EDGES)
    def test_only_the_header_is_parsed_as_json(self, canonical, parts, monkeypatch, name):
        session, lines = canonical
        parsed = []
        read_json = protocol.read_json
        monkeypatch.setattr(protocol, "read_json",
                            lambda raw, line: parsed.append(line) or read_json(raw, line))
        try:
            load_transcript(io.StringIO(self._edge(name, lines, parts)))
        except ParseError:
            pass
        assert parsed == [1]


class TestCappedReads:
    """A file that goes on long after it first differs from the canonical one is refused at its
    line, and no read hands out more than one character past the longest canonical round line,
    or one footer part, whatever follows."""

    ROUNDS = 3000

    @pytest.fixture(scope="class")
    def canonical(self):
        session = run_session(n_rounds=self.ROUNDS, alice=AlicePolicy.family(0.7),
                              bob=BobPolicy(), eve=InterceptResend(PhaseChoice.PHI_0,
                                                                   SpinBasis.Y, 0.5), seed=23)
        out = io.StringIO()
        save_transcript(session, out)
        return session, out.getvalue().split("\n")[:-1]

    MEGABYTE = "x" * (1 << 20)

    @pytest.mark.parametrize("name, line, message", [
        ("last_round_deleted", ROUNDS + 1, "header announces 3000 rounds, found 2999"),
        ("footer_changed_in_its_first_part", ROUNDS + 2,
         "footer differs from its canonical text at column 12: expected 'footer\""),
        ("megabyte_line_for_round_5", 7,
         "round 5 differs from its canonical text at column 1: expected '{\"record\""),
        ("megabyte_after_the_footer", ROUNDS + 3, "text after the footer: 'xxxx"),
    ])
    def test_a_long_file_is_refused_at_its_line_with_capped_reads(self, canonical, name, line,
                                                                 message):
        session, lines = canonical
        head, footer = lines[:-1], lines[-1]
        text = {
            "last_round_deleted": lambda: "\n".join(head[:-1] + [footer]) + "\n",
            "footer_changed_in_its_first_part":
                lambda: "\n".join(head + [footer.replace('"footer"', '"FOOTER"', 1)]) + "\n",
            "megabyte_line_for_round_5": lambda: "\n".join(head[:6] + [self.MEGABYTE]),
            "megabyte_after_the_footer": lambda: "\n".join(lines + [self.MEGABYTE]),
        }[name]()
        fh = _Reads(text)
        with pytest.raises(ParseError) as exc:
            load_transcript(fh)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: {message}")
        parts = list(protocol._footer_parts(session.kinds))
        bound = max(_limit(self.ROUNDS), *map(len, parts))
        assert 0 < fh.longest_after_the_header <= bound < len(footer)
