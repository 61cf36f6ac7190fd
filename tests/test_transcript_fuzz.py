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
    load_transcript,
    run_session,
    save_transcript,
)
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
