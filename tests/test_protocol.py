"""Round simulation, sifting, keys, transcripts and replay."""

import copy
import dataclasses
import hashlib
import io
import itertools
import json
import pickle
import tracemalloc

import numpy as np
import pytest

from pathspin import (
    AlicePolicy,
    BasisMode,
    BobPolicy,
    Group,
    InterceptResend,
    PhaseChoice,
    Rng,
    SpinBasis,
    StateLabel,
    Transcript,
    Verdict,
    decode_bit,
    load_transcript,
    qber,
    replay_session,
    run_round,
    run_session,
    save_transcript,
    sift,
)
from pathspin.errors import (
    ConfigError,
    DecodingError,
    InvalidDistributionError,
    ParseError,
)
from pathspin import cli, optics, protocol, qmath
from pathspin.optics import OUTCOMES, Port, SpinOutcome
from pathspin.protocol import (
    _KIND_OF_TAIL,
    _KINDS,
    _ROUND_HEAD,
    _ROUND_KEYS,
    _TAILS,
    RoundRecord,
    _footer_line,
)


def _round_obj(r: RoundRecord) -> dict:
    """The object of a round's line, built field by field from its record."""
    return {"record": "round", "round_index": r.round_index, "label": r.label.value,
            "phi": r.phi.value, "basis": r.basis.value, "port": r.outcome.port.value,
            "spin": r.outcome.spin.value, "verdict": r.verdict.value, "alice_bit": r.alice_bit,
            "bob_bit": r.bob_bit, "decode_failed": r.decode_failed}


class TestSifting:
    def test_matched_group_of_each_setting(self):
        assert protocol.KEEP_GROUP[PhaseChoice.PHI_0, SpinBasis.Y] is Group.G1
        assert protocol.KEEP_GROUP[PhaseChoice.PHI_HALF_PI, SpinBasis.Z] is Group.G1
        assert protocol.KEEP_GROUP[PhaseChoice.PHI_0, SpinBasis.Z] is Group.G2
        assert protocol.KEEP_GROUP[PhaseChoice.PHI_HALF_PI, SpinBasis.Y] is Group.G2

    @pytest.mark.parametrize("group", list(Group))
    @pytest.mark.parametrize("phi", list(PhaseChoice))
    @pytest.mark.parametrize("basis", list(SpinBasis))
    def test_sift_keeps_iff_group_matches(self, group, phi, basis):
        expected = Verdict.KEEP if protocol.KEEP_GROUP[phi, basis] is group else Verdict.ABORT
        assert sift(group, phi, basis) is expected

    def test_exactly_half_of_settings_keep_each_group(self):
        for group in Group:
            keeps = sum(
                sift(group, phi, basis) is Verdict.KEEP
                for phi in PhaseChoice for basis in SpinBasis
            )
            assert keeps == 2


class TestDecoding:
    @pytest.mark.parametrize("label", list(StateLabel))
    def test_supported_outcomes_decode_to_label_bit(self, label):
        from pathspin.optics import outcome_support

        for phi in PhaseChoice:
            for basis in SpinBasis:
                if sift(label.group, phi, basis) is not Verdict.KEEP:
                    continue
                for outcome in outcome_support(label, phi.radians, basis):
                    assert decode_bit(label.group, phi, basis, outcome) == label.bit

    def test_decoding_rejects_mismatched_setting(self):
        with pytest.raises(DecodingError):
            decode_bit(Group.G1, PhaseChoice.PHI_0, SpinBasis.Z, OUTCOMES[0])

    def test_every_outcome_decodes_under_matched_setting(self):
        # the two member supports cover all four detectors, so a kept
        # round can always be decoded, whatever arrives; each state of the
        # other group spreads over all four, so the setting resolves one group
        for group in Group:
            for phi in PhaseChoice:
                for basis in SpinBasis:
                    if sift(group, phi, basis) is not Verdict.KEEP:
                        for label in group.labels:
                            assert len(optics.outcome_support(label, phi.radians, basis)) == 4
                        continue
                    decoded = protocol.DECODED[phi, basis]
                    assert protocol.KEEP_GROUP[phi, basis] is group and len(decoded) == 4
                    for label in group.labels:
                        assert list(decoded.values()).count(label) == 2
                    for outcome in OUTCOMES:
                        assert decode_bit(group, phi, basis, outcome) in (0, 1)


class TestSiftTable:
    def test_table_agrees_with_sift_and_decode_bit(self):
        for label_idx, label in enumerate(StateLabel):
            for phi_idx, phi in enumerate(PhaseChoice):
                for basis_idx, basis in enumerate(SpinBasis):
                    verdict = sift(label.group, phi, basis)
                    assert len(OUTCOMES) == 4
                    for outcome_idx, outcome in enumerate(OUTCOMES):
                        kind = _KINDS[((label_idx * 2 + phi_idx) * 2 + basis_idx) * 4 + outcome_idx]
                        assert kind[:6] == (label, phi, basis, outcome, verdict, label.bit)
                        bit, failed = kind[6:]
                        if verdict is Verdict.ABORT:
                            assert (bit, failed) == (None, False)
                        else:
                            assert not failed
                            assert bit == decode_bit(label.group, phi, basis, outcome)

    def test_decode_bit_succeeds_on_every_kept_kind(self):
        # so no kind has decode_failed set, and decode_failures() is a constant 0
        kept = [kind for kind in _KINDS if kind[4] is Verdict.KEEP]
        assert len(kept) == 32
        for label, phi, basis, outcome, _, _, bob, failed in kept:
            assert decode_bit(label.group, phi, basis, outcome) == bob in (0, 1)
            assert failed is False
        assert not any(kind[7] for kind in _KINDS)


class TestCanonicalLines:
    def test_text_lookup_agrees_with_json_for_every_kind(self):
        assert len(_TAILS) == len(_KIND_OF_TAIL) == 64
        assert sorted(_KIND_OF_TAIL.values()) == list(range(64))
        for i, kind in enumerate(sorted(range(64), key=lambda k: repr(_KINDS[k]))):
            line = _ROUND_HEAD + str(i) + _TAILS[kind]
            assert _KIND_OF_TAIL[line.removeprefix(_ROUND_HEAD + str(i))] == kind
            by_json = json.dumps(_round_obj(RoundRecord(i, *_KINDS[kind])), separators=(",", ":"))
            assert line == by_json + "\n"


def _footer_by_json(t: Transcript) -> str:
    """The footer as ``json.dumps`` writes the object of ``t``'s declarations and keys."""
    return json.dumps({"record": "footer",
                       "declarations": [[i, label.value] for i, label in t.declarations],
                       "alice_key": "".join(map(str, t.alice_key)),
                       "bob_key": "".join(map(str, t.bob_key))}, separators=(",", ":"))


_ABORTED_KINDS = bytes(k for k in range(64) if _KINDS[k][4] is Verdict.ABORT)
_KEPT_KINDS = bytes(k for k in range(64) if _KINDS[k][4] is Verdict.KEEP)


class TestFooterLine:
    @pytest.mark.parametrize("make", [
        lambda: run_session(1, AlicePolicy.uniform(), BobPolicy(), seed=3),
        lambda: Transcript(seed=0, config={"n_rounds": 160}, kinds=_ABORTED_KINDS * 5),
        lambda: Transcript(seed=0, config={"n_rounds": 160}, kinds=_KEPT_KINDS * 5),
        lambda: run_session(500, AlicePolicy.family(1.0), BobPolicy(), seed=4),
        lambda: run_session(500, AlicePolicy.family(0.8), BobPolicy(BasisMode.ALWAYS_Z), seed=5),
        lambda: run_session(500, AlicePolicy.uniform(), BobPolicy(),
                            eve=InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y), seed=6),
    ], ids=["one-round", "all-aborted", "all-kept", "family-1.0", "always-z", "tapped"])
    def test_footer_line_is_the_json_of_declarations_and_keys(self, make):
        t = make()
        assert _footer_line(t.kinds) == _footer_by_json(t)
        buf = io.StringIO()
        save_transcript(t, buf)
        assert buf.getvalue().endswith("\n" + _footer_line(t.kinds) + "\n")
        assert load_transcript(io.StringIO(buf.getvalue())) == t

    def test_the_sessions_cover_the_edges(self):
        assert json.loads(_footer_line(_ABORTED_KINDS))["alice_key"] == ""
        assert json.loads(_footer_line(_KEPT_KINDS))["declarations"] == []
        tapped = run_session(500, AlicePolicy.uniform(), BobPolicy(),
                             eve=InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y), seed=6)
        assert tapped.key_errors()[0] > 0

    @pytest.mark.parametrize("part", [1, 3, 64, protocol._ROUND_BLOCK])
    @pytest.mark.parametrize("kinds", [
        _ABORTED_KINDS * 5, _KEPT_KINDS * 5, _KEPT_KINDS + _ABORTED_KINDS + _KEPT_KINDS,
        run_session(500, AlicePolicy.uniform(), BobPolicy(), seed=6,
                    eve=InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5)).kinds,
    ], ids=["all-aborted", "all-kept", "kept-aborted-kept", "tapped"])
    def test_the_parts_join_to_the_json_footer_at_every_part_size(self, monkeypatch, part, kinds):
        monkeypatch.setattr(protocol, "_ROUND_BLOCK", part)
        parts = list(protocol._footer_parts(kinds))
        t = Transcript(seed=0, config={"n_rounds": len(kinds)}, kinds=kinds)
        assert "".join(parts) == _footer_line(kinds) == _footer_by_json(t)
        # the head, one part per ``part`` rounds that abort any, and the two keys
        aborting = {i // part for i, _ in t.declarations}
        assert len(parts) == 1 + len(aborting) + 2
        assert all(p.count("[") <= part for p in parts[1:-2])


def _by_hand(t: Transcript) -> str:
    """The text ``save_transcript`` writes for ``t``, one line at a time."""
    header = {"record": "header", "version": protocol.TRANSCRIPT_VERSION,
              "seed": t.seed, "config": t.config}
    return "".join([json.dumps(header, separators=(",", ":")) + "\n",
                    *(_ROUND_HEAD + str(i) + _TAILS[kind] for i, kind in enumerate(t.kinds)),
                    _footer_line(t.kinds) + "\n"])


class TestChunkedWriter:
    @pytest.mark.parametrize("n", [1, protocol._ROUND_BLOCK - 1, protocol._ROUND_BLOCK,
                                   protocol._ROUND_BLOCK + 1])
    def test_each_chunk_edge_writes_the_lines_by_hand(self, tmp_path, n):
        session = run_session(n, AlicePolicy.family(0.8), BobPolicy(), seed=n)
        buf = io.StringIO()
        save_transcript(session, buf)
        assert buf.getvalue() == _by_hand(session)
        path = tmp_path / "session.qkdlog"
        save_transcript(session, path)
        assert path.read_bytes() == _by_hand(session).encode()
        assert load_transcript(path) == session

    def test_a_tapped_session_of_many_chunks_writes_the_lines_by_hand(self, monkeypatch):
        session = run_session(5 * protocol._ROUND_BLOCK + 7, AlicePolicy.family(0.9), BobPolicy(),
                              eve=InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5), seed=2)
        writes = []
        buf = io.StringIO()
        monkeypatch.setattr(buf, "write", lambda text: writes.append(text) or len(text))
        save_transcript(session, buf)
        assert "".join(writes) == _by_hand(session)
        # the header, one join per block of rounds, the footer's parts and its newline
        parts = list(protocol._footer_parts(session.kinds))
        assert len(writes) == 1 + 6 + len(parts) + 1
        assert [w.count("\n") for w in writes[1:7]] == [protocol._ROUND_BLOCK] * 5 + [7]
        assert writes[7:-1] == parts


class TestRecordTuples:
    def _kinds(self):
        return list(_KINDS)

    def test_fields_in_order_with_one_default(self):
        assert RoundRecord._fields == ("round_index", "label", "phi", "basis", "outcome",
                                       "verdict", "alice_bit", "bob_bit", "decode_failed")
        assert RoundRecord._field_defaults == {"decode_failed": False}
        assert not dataclasses.is_dataclass(RoundRecord)

    def test_record_slice_is_its_kind(self):
        kinds = self._kinds()
        assert len(kinds) == len(set(kinds)) == 64
        for i, kind in enumerate(kinds):
            rec = RoundRecord(i, *kind)
            assert rec[0] == rec.round_index == i
            assert rec[1:] == kind
            assert json.loads(_ROUND_HEAD + str(i) + _TAILS[i]) == _round_obj(rec)

    def test_records_are_immutable(self):
        rec = RoundRecord(0, *self._kinds()[0])
        with pytest.raises(AttributeError):
            rec.verdict = Verdict.ABORT

    def test_saving_never_renders_a_tail(self, monkeypatch, tmp_path):
        # the header is the one object a save renders: every round line is looked up in _TAILS
        session = run_session(2000, AlicePolicy.family(0.8), BobPolicy(), seed=8,
                              eve=InterceptResend(PhaseChoice.PHI_HALF_PI, SpinBasis.Z, 0.5))
        calls = []
        dumps = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a[0]) or dumps(*a, **k))
        save_transcript(session, io.StringIO())
        assert len(calls) == 1 and calls[0]["record"] == "header"
        save_transcript(session, tmp_path / "session.qkdlog")
        assert len(calls) == 2 and calls[1]["record"] == "header"

    @pytest.mark.parametrize("alice, bob, eve", [
        (AlicePolicy.uniform(), BobPolicy(), None),
        (AlicePolicy.family(0.8), BobPolicy(BasisMode.ALWAYS_Z),
         InterceptResend(PhaseChoice.PHI_HALF_PI, SpinBasis.Z)),
        (AlicePolicy.family(0.9), BobPolicy(),
         InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5)),
    ], ids=["untapped", "always-z-full-tap", "0,y,0.5"])
    def test_a_session_path_builds_no_record(self, monkeypatch, tmp_path, alice, bob, eve):
        class NoRecord:
            def __new__(cls, *args):
                raise AssertionError("a session path built a RoundRecord")

        monkeypatch.setattr(protocol, "RoundRecord", NoRecord)
        session = run_session(5000, alice, bob, seed=12, eve=eve)
        path = tmp_path / "session.qkdlog"
        save_transcript(session, path)
        loaded = load_transcript(path)
        cfg = cli.SessionConfig()
        payload = cli._summarize(loaded, str(path), cfg.min_aborts)[2]
        assert loaded == session
        assert payload["rounds"] == 5000
        assert (payload["qber"]["mismatches"] > 0) == (eve is not None)

    def test_tapped_rounds_never_run_the_receiver_chain(self, monkeypatch):
        def chain(*args):
            raise AssertionError("a round ran the receiver chain")

        monkeypatch.setattr(optics, "receiver_distribution", chain)
        monkeypatch.setattr(protocol, "receiver_distribution", chain)
        session = run_session(2000, AlicePolicy.family(0.9), BobPolicy(), seed=9,
                              eve=InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5))
        replay = replay_session(session)
        assert replay == session and qber(session).mismatches > 0

    @pytest.mark.parametrize("enum", [StateLabel, Group, SpinBasis, Port, SpinOutcome,
                                      PhaseChoice, Verdict])
    def test_round_enums_hash_by_identity(self, enum):
        assert enum.__hash__ is object.__hash__
        for member in enum:
            assert hash(member) == object.__hash__(member)
            assert enum(member.value) is member
            assert pickle.loads(pickle.dumps(member)) is member
            assert {member: 1}[enum(member.value)] == 1


class TestPolicies:
    def test_uniform_weights(self):
        assert AlicePolicy.uniform().weights == (0.25, 0.25, 0.25, 0.25)

    def test_family_puts_remainder_on_other_three(self):
        w = AlicePolicy.family(0.7).weights
        np.testing.assert_allclose(w, (0.7, 0.1, 0.1, 0.1), atol=1e-15)
        np.testing.assert_allclose(sum(w), 1.0, atol=1e-15)

    def test_rejects_non_distribution(self):
        with pytest.raises(InvalidDistributionError):
            AlicePolicy((0.5, 0.5, 0.5, -0.5))
        with pytest.raises(InvalidDistributionError):
            AlicePolicy((0.1, 0.1, 0.1, 0.1))
        with pytest.raises(InvalidDistributionError):
            AlicePolicy((float("nan"), 0.0, 0.0, 1.0))
        with pytest.raises(InvalidDistributionError):
            AlicePolicy(((0.25, 0.25), (0.25, 0.25)))
        with pytest.raises(InvalidDistributionError, match="^expected 4 weights, got 2$"):
            AlicePolicy((0.5, 0.5))

    def test_family_domain(self):
        with pytest.raises(InvalidDistributionError):
            AlicePolicy.family(1.5)


class TestRounds:
    def test_round_is_deterministic(self):
        a = run_round(AlicePolicy.uniform(), BobPolicy(), None, Rng(seed=10, stream=3))
        b = run_round(AlicePolicy.uniform(), BobPolicy(), None, Rng(seed=10, stream=3))
        session = run_session(n_rounds=4, alice=AlicePolicy.uniform(), bob=BobPolicy(), seed=10)
        assert type(a) is int and a == b == session.kinds[3]

    def test_round_uses_per_round_stream(self):
        session = run_session(n_rounds=20, alice=AlicePolicy.uniform(),
                              bob=BobPolicy(), seed=99)
        for i, kind in enumerate(session.kinds):
            solo = run_round(AlicePolicy.uniform(), BobPolicy(), None, Rng(seed=99, stream=i))
            assert solo == kind

    def test_session_calls_run_round_once_per_round_by_its_global_name(self, monkeypatch):
        # perfbench/tracer.py counts rounds at protocol.run_round
        calls = []

        def counted(*args):
            calls.append(args)
            return run_round(*args)

        alice, bob = AlicePolicy.family(0.8), BobPolicy()
        eve = InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5)
        expected = run_session(300, alice, bob, eve=eve, seed=5)
        monkeypatch.setattr(protocol, "run_round", counted)
        assert run_session(300, alice, bob, eve=eve, seed=5) == expected
        assert len(calls) == 300

    def test_session_draws_once_per_call_of_the_two_draw_functions(self, monkeypatch):
        # perfbench/tracer.py counts draws as calls of Rng.sample and Rng.next_uniform: one call
        # per name of each round's protocol.DRAWS row, the gate by next_uniform and every other
        # by sample.  Intercepts are recounted at the gate's position in the table: 3 in the
        # uniform mode, 2 under always_z.
        n, seed, alice = 3000, 3, AlicePolicy.family(0.9)
        eve = InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5)
        calls = {"sample": 0, "next_uniform": 0}
        for name in calls:
            def counted(*args, name=name, draw=getattr(Rng, name)):
                calls[name] += 1
                return draw(*args)
            monkeypatch.setattr(Rng, name, counted)
        intercepted = {}
        for mode, tap in itertools.product(BasisMode, (None, eve)):
            rows = [protocol.DRAWS[_draw_key(mode, tap, seed, i)] for i in range(n)]
            calls.update(sample=0, next_uniform=0)  # _draw_key's own gate draws are not counted
            run_session(n, alice, BobPolicy(mode), eve=tap, seed=seed)
            gates = sum(row.count("gate") for row in rows)
            assert calls == {"sample": sum(map(len, rows)) - gates, "next_uniform": gates}
            intercepted[mode, tap] = sum("eve" in row for row in rows)
        assert intercepted == {(BasisMode.INDEPENDENT_UNIFORM, None): 0,
                               (BasisMode.INDEPENDENT_UNIFORM, eve): 1440,
                               (BasisMode.ALWAYS_Z, None): 0, (BasisMode.ALWAYS_Z, eve): 1466}

    def test_kept_round_has_bits_abort_has_none(self):
        session = run_session(n_rounds=200, alice=AlicePolicy.uniform(),
                              bob=BobPolicy(), seed=5)
        for rec in session.rounds:
            if rec.verdict is Verdict.KEEP:
                assert rec.bob_bit in (0, 1)
            else:
                assert rec.bob_bit is None
            assert rec.alice_bit == rec.label.bit

    def test_always_z_mode_never_uses_other_basis(self):
        session = run_session(n_rounds=100, alice=AlicePolicy.uniform(),
                              bob=BobPolicy(BasisMode.ALWAYS_Z), seed=6)
        assert all(rec.basis is SpinBasis.Z for rec in session.rounds)


def _draw_key(mode: BasisMode, eve, seed: int, i: int) -> tuple:
    """The ``protocol.DRAWS`` key of round ``i``, its gate read at the gate's position there."""
    gated = eve is not None and eve.fraction < 1.0
    gate = protocol.DRAWS[mode, True, False].index("gate")
    hit = eve is not None and (not gated or Rng(seed, i).next_uniform(gate)[0] < eve.fraction)
    return mode, gated, hit


class TestDrawSchedule:
    TAPS = [None, InterceptResend(PhaseChoice.PHI_HALF_PI, SpinBasis.Z),
            InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5)]

    def test_run_round_draws_at_the_positions_of_its_row(self, monkeypatch):
        # every draw a round makes, by function and position, is its row of protocol.DRAWS
        # in order; both basis modes and the three kinds of tap reach all eight rows
        drawn, seen, seed, alice = [], set(), 11, AlicePolicy.family(0.8)

        def sample(rng, weights, k=0, draw=Rng.sample):
            drawn.append(("sample", rng.counter + k))
            return draw(rng, weights, k)

        def next_uniform(rng, k=0, draw=Rng.next_uniform):
            drawn.append(("next_uniform", rng.counter + k))
            return draw(rng, k)

        monkeypatch.setattr(Rng, "sample", sample)
        monkeypatch.setattr(Rng, "next_uniform", next_uniform)
        for mode, eve in itertools.product(BasisMode, self.TAPS):
            for i, rng in enumerate(Rng.streams(seed, 500)):
                key = _draw_key(mode, eve, seed, i)
                drawn.clear()
                run_round(alice, BobPolicy(mode), eve, rng)
                assert drawn == [("next_uniform" if name == "gate" else "sample", j)
                                 for j, name in enumerate(protocol.DRAWS[key])], (key, i)
                seen.add(key)
        assert seen == protocol.DRAWS.keys() and len(seen) == 8

    def test_the_tape_holds_the_longest_row(self):
        # a round that drew past the tape would mix its extra draws one by one
        assert qmath.TAPE == max(map(len, protocol.DRAWS.values()))


class TestDrawTape:
    @pytest.mark.parametrize("seed", [1, 7, -3, 2**70], ids=["1", "7", "-3", "2**70"])
    @pytest.mark.parametrize("bob", [BobPolicy(), BobPolicy(BasisMode.ALWAYS_Z)],
                             ids=["uniform", "always-z"])
    @pytest.mark.parametrize("eve", [
        None,
        InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5),
        InterceptResend(PhaseChoice.PHI_HALF_PI, SpinBasis.Z),
    ], ids=["untapped", "0,y,0.5", "pi/2,z"])
    def test_session_equals_its_rounds_on_scalar_generators(self, bob, eve, seed):
        # 2100 rounds cross two boundaries of Rng.streams' 1024-stream batches; each round
        # on a generator built with the scalar mix must give the kind the session did, on
        # negative seeds and seeds wider than 64 bits too
        alice, n = AlicePolicy.family(0.7), 2100
        assert n > 2 * qmath.STREAM_BATCH
        session = run_session(n, alice, bob, eve=eve, seed=seed)
        assert session.kinds == bytes(run_round(alice, bob, eve, Rng(seed, i))
                                      for i in range(n))

    def test_untapped_outcome_table_is_the_receiver_chain(self):
        for label in StateLabel:
            for phi_idx, phi in enumerate(PhaseChoice):
                for basis_idx, basis in enumerate((SpinBasis.Z, SpinBasis.Y)):
                    chain = optics.receiver_distribution(optics.prepare(label), phi.radians, basis)
                    assert protocol.RECEIVED[label][phi_idx][basis_idx] == chain


class TestSessions:
    def test_keys_match_without_adversary(self, uniform_run):
        transcript, _ = uniform_run
        assert transcript.alice_key == transcript.bob_key
        assert transcript.decode_failures() == 0

    def test_keep_fraction_near_half(self, uniform_run):
        transcript, _ = uniform_run
        # binomial(1e5, 1/2): three sigma is ~0.0047
        assert abs(transcript.keep_fraction() - 0.5) < 0.005

    def test_declarations_match_abort_rounds(self, uniform_run):
        transcript, _ = uniform_run
        aborts = [r for r in transcript.rounds if r.verdict is Verdict.ABORT]
        assert len(transcript.declarations) == len(aborts)
        assert all(
            idx == rec.round_index and label is rec.label
            for (idx, label), rec in zip(transcript.declarations, aborts)
        )
        counts = transcript.abort_counts()
        assert sum(counts.values()) == len(aborts)

    def test_family_weights_shift_abort_mix(self, family_run):
        counts = family_run.abort_counts()
        total = sum(counts.values())
        # p = 0.8 family: the first label carries 0.8 of the abort mass
        assert abs(counts[StateLabel.PSI] / total - 0.8) < 0.02

    @staticmethod
    def _session(n_rounds, seed):
        return run_session(n_rounds=n_rounds, alice=AlicePolicy.uniform(), bob=BobPolicy(), seed=seed)

    # the writer and the header reader take JSON integers only, so a session refuses the rest
    @pytest.mark.parametrize("n_rounds, seed, message", [
        (0, 1, "n_rounds must be >= 1, got 0"),
        (True, 1, "n_rounds must be an integer, got True of type bool"),
        (np.int64(3), 1, f"n_rounds must be an integer, got {np.int64(3)!r} of type int64"),
        (2.0, 1, "n_rounds must be an integer, got 2.0 of type float"),
        ("3", 1, "n_rounds must be an integer, got '3' of type str"),
        (3, True, "seed must be an integer, got True of type bool"),
        (3, 1.0, "seed must be an integer, got 1.0 of type float"),
        (3, np.int64(2), f"seed must be an integer, got {np.int64(2)!r} of type int64"),
        (None, None, "header config needs an integer n_rounds, got None"),
    ], ids=["zero", "bool-rounds", "int64-rounds", "float-rounds", "str-rounds", "bool-seed",
            "float-seed", "int64-seed", "replay-without-rounds"])
    def test_rejects_empty_session(self, n_rounds, seed, message):
        with pytest.raises(ConfigError) as err:
            if n_rounds is None:  # a header config without n_rounds, replayed
                replay_session(Transcript(seed=0, config={}, kinds=b""))
            self._session(n_rounds, seed)
        assert str(err.value) == message

    def test_negative_seed_runs(self):
        # a seed of 2**70 runs in the ``full-tap-2**70`` session below
        assert len(self._session(3, -5).kinds) == 3

    def test_parallel_equals_serial(self, tmp_path):
        # the ``jobs`` config key selects no code path: the transcript is the same for every value
        paths = [tmp_path / f"jobs-{jobs}.qkdlog" for jobs in (1, 4)]
        for jobs, path in zip((1, 4), paths):
            cfg = tmp_path / f"jobs-{jobs}.json"
            cfg.write_text(json.dumps({"rounds": 300, "seed": 12, "jobs": jobs, "out": str(path)}))
            assert cli.main(["run", "--config", str(cfg)]) in (cli.EXIT_OK, cli.EXIT_INSECURE)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize(
        "alice, bob, eve, seed, digest",
        [
            (AlicePolicy.uniform(), BobPolicy(), None, 7,
             "c958d3e5ba0a4b2cf5f910c462aedcf2e962612c84e2adde4a003055e5b49983"),
            (AlicePolicy.family(0.8), BobPolicy(BasisMode.ALWAYS_Z), None, 8,
             "569421eab2232e7ce1a79c24bc479b8b458bb0df5d7e2c6f40a8ef8162ba2940"),
            (AlicePolicy.uniform(), BobPolicy(),
             InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y), 9,
             "615b4ac3586aa487b069d0301db23a2f01788d8c361ea382ee92ea528537aa37"),
            (AlicePolicy.family(0.9), BobPolicy(),
             InterceptResend(PhaseChoice.PHI_HALF_PI, SpinBasis.Z, 0.5), 10,
             "15a8c5d3cfd39449312490f75abb111bdc2c80774f857ccae56c19f6cd142251"),
            (AlicePolicy.family(0.7), BobPolicy(BasisMode.ALWAYS_Z),
             InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.3), 11,
             "9ee813d67a529bc4603d35e80ae79883547b21fc13c1fc66a992ac0d74449c67"),
        ],
        ids=["uniform", "family-always-z", "full-tap", "half-tap", "partial-tap-always-z"],
    )
    def test_transcript_bytes_are_pinned(self, alice, bob, eve, seed, digest):
        # any change to draw order, outcome tables or serialization shows here
        buf = io.StringIO()
        save_transcript(run_session(3000, alice, bob, eve=eve, seed=seed), buf)
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest

    def test_replay_reproduces_rounds(self):
        session = run_session(n_rounds=150, alice=AlicePolicy.family(0.6),
                              bob=BobPolicy(), seed=8)
        again = replay_session(session)
        assert again.rounds == session.rounds
        assert again.alice_key == session.alice_key

    def test_config_snapshot_contents(self):
        session = run_session(n_rounds=5, alice=AlicePolicy.family(0.6),
                              bob=BobPolicy(), seed=8)
        cfg = session.config
        assert cfg["n_rounds"] == 5
        np.testing.assert_allclose(cfg["alice_weights"], AlicePolicy.family(0.6).weights)
        assert cfg["basis_mode"] == "independent_uniform"
        assert cfg["eve"] is None


def _drop_header_key(line: str, key: str) -> str:
    """``line`` without ``key``, written as ``save_transcript`` writes, so only that key differs."""
    head = json.loads(line)
    del head[key]
    return json.dumps(head, separators=(",", ":"))


def _edit_key(line: str, key: str, edit) -> str:
    """``line`` with ``key`` edited, written as ``save_transcript`` writes, so only it differs."""
    obj = json.loads(line)
    obj[key] = edit(obj[key])
    return json.dumps(obj, separators=(",", ":"))


def _dump_reversed(line: str) -> str:
    """``line`` with its keys in reverse order, written as ``save_transcript`` writes."""
    return json.dumps(dict(reversed(json.loads(line).items())), separators=(",", ":"))


def _flip_verdict(verdict: str) -> str:
    return "abort" if verdict == "keep" else "keep"


def _other_group_label(label: str) -> str:
    """The label of the other group that encodes the same bit."""
    return {"psi": "phi", "psi_perp": "phi_perp", "phi": "psi", "phi_perp": "psi_perp"}[label]


class TestSerialization:
    def _small(self, seed=21, n=60):
        return run_session(n_rounds=n, alice=AlicePolicy.uniform(), bob=BobPolicy(), seed=seed)

    def test_round_trip(self, tmp_path):
        session = self._small()
        path = tmp_path / "session.qkdlog"
        save_transcript(session, path)
        loaded = load_transcript(path)
        assert loaded.seed == session.seed
        assert loaded.rounds == session.rounds
        assert loaded.declarations == session.declarations
        assert loaded.alice_key == session.alice_key
        assert loaded.bob_key == session.bob_key
        assert loaded.config == session.config

    def test_loading_a_canonical_file_peaks_below_its_footer_line(self, tmp_path):
        # the footer is matched part by part as it is read, so no copy of it is held whole
        kinds = np.random.default_rng(4).integers(0, 64, 200_000, dtype=np.uint8).tobytes()
        config = {"n_rounds": len(kinds), "alice_weights": [0.25] * 4,
                  "basis_mode": "independent_uniform", "eve": None}
        session = Transcript(seed=5, config=config, kinds=kinds)
        path = tmp_path / "big.qkdlog"
        save_transcript(session, path)
        tracemalloc.start()
        try:
            loaded = load_transcript(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == session
        assert peak < len(protocol._footer_line(kinds))

    def test_file_layout_is_json_lines(self, tmp_path):
        session = self._small(n=10)
        path = tmp_path / "session.qkdlog"
        save_transcript(session, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 12  # header + 10 rounds + footer
        head = json.loads(lines[0])
        foot = json.loads(lines[-1])
        assert head["record"] == "header" and head["version"] == 1
        assert foot["record"] == "footer"
        assert all(json.loads(line)["record"] == "round" for line in lines[1:-1])

    @pytest.mark.parametrize(
        "alice, bob, eve",
        [
            (AlicePolicy.uniform(), BobPolicy(), None),
            (AlicePolicy.family(0.8), BobPolicy(BasisMode.ALWAYS_Z),
             InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5)),
        ],
        ids=["uniform", "tapped-always-z"],
    )
    def test_round_lines_equal_their_json_objects(self, alice, bob, eve):
        session = run_session(800, alice, bob, eve=eve, seed=41)
        buf = io.StringIO()
        save_transcript(session, buf)
        lines = buf.getvalue().split("\n")
        assert lines[-1] == "" and len(lines) == len(session.rounds) + 3
        for r, line in zip(session.rounds, lines[1:-2]):
            assert line == json.dumps(_round_obj(r), separators=(",", ":"))

    def test_a_21_megabyte_first_line_is_refused_with_a_capped_read(self, tmp_path):
        path = tmp_path / "long-header.qkdlog"
        path.write_text("x" * 21_000_000 + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                load_transcript(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == ("line 1: header longer than "
                                  f"{protocol._HEADER_LIMIT - 1} characters")
        assert peak < 1e6

    def test_a_header_loads_up_to_its_cap_and_no_further(self):
        # the config's contents are not checked here, so a padding key sets the header's length
        session = self._small(n=3)
        pad = protocol._HEADER_LIMIT - len(protocol._header_line(session.seed,
                                                                 {**session.config, "pad": ""}))
        fits, over = (Transcript(session.seed, {**session.config, "pad": "p" * n}, session.kinds)
                      for n in (pad, pad + 1))
        buf = io.StringIO()
        save_transcript(fits, buf)
        assert len(buf.getvalue().split("\n")[0]) + 1 == protocol._HEADER_LIMIT  # newline included
        assert load_transcript(io.StringIO(buf.getvalue())) == fits
        buf = io.StringIO()
        save_transcript(over, buf)
        with pytest.raises(ParseError) as err:
            load_transcript(io.StringIO(buf.getvalue()))
        assert str(err.value) == ("line 1: header longer than "
                                  f"{protocol._HEADER_LIMIT - 1} characters")

    def test_a_seed_of_4300_digits_loads_and_saves_back(self):
        session = self._small(n=5)
        big = Transcript(seed=-int("9" * 4300), config=session.config, kinds=session.kinds)
        buf = io.StringIO()
        save_transcript(big, buf)
        loaded = load_transcript(io.StringIO(buf.getvalue()))
        assert loaded == big
        again = io.StringIO()
        save_transcript(loaded, again)
        assert again.getvalue() == buf.getvalue()

    def test_leading_blank_lines_before_header_are_refused_at_line_1(self, tmp_path):
        session = self._small(n=30)
        path = tmp_path / "session.qkdlog"
        save_transcript(session, path)
        padded = tmp_path / "padded.qkdlog"
        padded.write_text("\n \n" + path.read_text())
        with pytest.raises(ParseError, match="^line 1: invalid JSON") as err:
            load_transcript(padded)
        assert err.value.line == 1

    def test_round_lines_without_decode_failed_are_refused(self, tmp_path):
        session = self._small(n=30)
        path = tmp_path / "session.qkdlog"
        save_transcript(session, path)
        lines = path.read_text().splitlines()
        legacy = [lines[0]] + [_drop_header_key(line, "decode_failed") for line in lines[1:-1]]
        old = tmp_path / "legacy.qkdlog"
        old.write_text("\n".join(legacy + [lines[-1]]) + "\n")
        with pytest.raises(ParseError) as err:
            load_transcript(old)
        column = len(legacy[1]) - len("}") + 1
        assert str(err.value) == (f"line 2: round 0 differs from its canonical text at column "
                                  f"{column}: expected ',\"decode_failed\":false}}\\n', found '}}\\n'")

    def test_replay_of_loaded_transcript(self, tmp_path):
        session = self._small(seed=33)
        path = tmp_path / "session.qkdlog"
        save_transcript(session, path)
        again = replay_session(load_transcript(path))
        assert again.rounds == session.rounds

    @pytest.mark.parametrize(
        "mangle, hint",
        [
            (lambda lines: ["not json"] + lines[1:], "line 1"),
            (lambda lines: lines[1:], "header"),
            (lambda lines: lines[:-1], "line 10: transcript ended before footer record"),
            (lambda lines: lines[:1] + lines[2:],
             "line 2: round 0 differs from its canonical text at column 33: expected '0,"),
            (lambda lines: lines + [lines[-1]],
             "line 11: text after the footer: '{\"record\":\"footer\""),
            (lambda lines: lines[:3] + ['{"record":"mystery"}'] + lines[3:],
             "line 4: round 2 differs from its canonical text at column 12: expected 'round\","
             "\"round_index\":2,"),
            (lambda lines: [_drop_header_key(lines[0], "config")] + lines[1:],
             "line 1: header needs a config"),
            (lambda lines: [_drop_header_key(lines[0], "seed")] + lines[1:],
             "line 1: header needs an integer seed"),
            (lambda lines: lines[:1] + ["[1,2]"] + lines[1:],
             "line 2: round 0 differs from its canonical text at column 1: "
             "expected '{\"record\":\"round\",\"round_index\":0,"),
            (lambda lines: lines[:1] + ["7"] + lines[1:], "column 1: expected '{\"record"),
            (lambda lines: lines[:-1] + [_edit_key(lines[-1], "declarations",
                                                   lambda ds: [[i, "psi"] for i, _ in ds])],
             "line 10: footer differs from its canonical text at column 41: expected 'hi\"]"),
            (lambda lines: lines[:-1] + [_edit_key(lines[-1], "alice_key",
                                                   lambda key: "7" + key[1:])],
             "line 10: footer differs from its canonical text at column 80: expected '0"),
            (lambda lines: lines[:1] + [_edit_key(lines[1], "round_index", lambda i: 99999)]
             + lines[2:], "line 2: round 0 differs from its canonical text at column 33: "
             "expected '0,\"label\":\"psi\",\"phi\":\"pi/2\""),
            (lambda lines: lines[:1] + [_edit_key(lines[1], "verdict", _flip_verdict)]
             + lines[2:], "line 2: round 0 differs from its canonical text at column 113: "
             "expected 'keep\",\"alice_bit\":0,\"bob_bit\":0,"),
            (lambda lines: lines[:1] + [_edit_key(lines[1], "label", _other_group_label)]
             + lines[2:], "line 2: round 0 differs from its canonical text at column 113: "
             "expected 'abort\",\"alice_bit\":0,\"bob_bit\":null,"),
            (lambda lines: lines[:1] + [_edit_key(lines[1], "alice_bit", lambda b: float("inf"))]
             + lines[2:], "line 2: round 0 differs from its canonical text at column 131: "
             "expected '0,\"bob_bit\"", ),
            (lambda lines: lines[:1] + [_edit_key(lines[1], "round_index", lambda i: float("inf"))]
             + lines[2:], "column 33: expected '0,\"label\":\"psi\",\"phi\":\"pi/2\",\"basis\":"
             "\"z\"', found 'Infinity,"),
            (lambda lines: lines + [lines[1].replace('"round_index":0,', '"round_index":8,')],
             "line 11: text after the footer: '{\"record\":\"round\",\"round_index\":8,"),
            (lambda lines: lines[:2] + [lines[1]] + lines[2:],
             "line 3: round 1 differs from its canonical text at column 33: expected '1,"),
            (lambda lines: [lines[1]] + lines, "line 1: expected header record"),
            (lambda lines: lines[:1] + ["[" * 100000 + "]" * 100000] + lines[1:],
             "line 2: round 0 differs from its canonical text at column 1: "
             "expected '{\"record\":\"round\",\"round_index\":0,\"label', found '[[[["),
            (lambda lines: lines[:1]
             + [lines[1].replace('"alice_bit":', '"alice_bit":' + "1" * 5000)] + lines[2:],
             "line 2: round 0 differs from its canonical text at column 131: "
             "expected '0,\"bob_bit\":0,\"decode_failed\":false}\\n', found '1111"),
            (lambda lines: [_edit_key(lines[0], "seed", lambda seed: True)] + lines[1:],
             "line 1: header needs an integer seed, got True"),
            (lambda lines: [_edit_key(lines[0], "version", lambda version: True)] + lines[1:],
             "line 1: unsupported transcript version True"),
            (lambda lines: [_edit_key(lines[0], "version", float)] + lines[1:],
             "line 1: unsupported transcript version 1.0"),
            (lambda lines: [_edit_key(lines[0], "config", lambda cfg: {**cfg, "n_rounds": 8.0})]
             + lines[1:], "line 1: header needs an integer n_rounds, got 8.0"),
            (lambda lines: lines[:1] + [lines[1].replace('"alice_bit":0,', '"alice_bit":0.0,')]
             + lines[2:], "line 2: round 0 differs from its canonical text at column 132: "
             "expected ',\"bob_bit\":0,\"decode_failed\":false}\\n', found '.0,"),
            (lambda lines: lines[:1] + [lines[1].replace('"decode_failed":false',
                                                         '"decode_failed":0')]
             + lines[2:], "line 2: round 0 differs from its canonical text at column 161: "
             "expected 'false}\\n', found '0}\\n'"),
            (lambda lines: lines[:1] + [lines[1].replace('"round_index":0,', '"round_index":0.0,')]
             + lines[2:], "line 2: round 0 differs from its canonical text at column 34: "
             "expected ',\"label\":\"psi\",\"phi\":\"pi/2\",\"basis\":\"z\",', found '.0,"),
            (lambda lines: lines[:3] + [lines[3].replace('"bob_bit":1,', '"bob_bit":true,')]
             + lines[4:], "line 4: round 2 differs from its canonical text at column 148: "
             "expected '1,\"decode_failed\":false}\\n', found 'true,"),
            (lambda lines: lines[:-1] + [_edit_key(lines[-1], "declarations",
                                                   lambda ds: [[1.0, ds[0][1]]] + ds[1:])],
             "line 10: footer differs from its canonical text at column 38: "
             "expected ',\"phi\"],[3,\"psi\"],[5,\"psi\"]', found '.0,"),
            (lambda lines: lines[:-1] + [_edit_key(lines[-1], "declarations",
                                                   lambda ds: [[True, ds[0][1]]] + ds[1:])],
             "line 10: footer differs from its canonical text at column 37: "
             "expected '1,\"phi\"],[3,\"psi\"],[5,\"psi\"]', found 'true,"),
            (lambda lines: lines[:-1] + [lines[-1][:-1] + ',"extra":1}'],
             "line 10: footer differs from its canonical text at column 104: "
             "expected '}', found ',\"extra\":1}\\n'"),
            (lambda lines: lines[:1] + [lines[1][:-1] + ',"extra":1}'] + lines[2:],
             "line 2: round 0 differs from its canonical text at column 166: "
             "expected '}\\n', found ',\"extra\":1}\\n'"),
            (lambda lines: lines[:2] + [_drop_header_key(lines[2], "bob_bit")] + lines[3:],
             "line 3: round 1 differs from its canonical text at column 135: "
             "expected 'bob_bit\":null,\"decode_failed\":false}\\n', "
             "found 'decode_failed\":false}\\n'"),
            (lambda lines: [json.dumps(json.loads(lines[0]))] + lines[1:],
             "line 1: header differs from its canonical text at column 11: "
             "expected '\"header\",\"version\":1,"),
            (lambda lines: [_dump_reversed(lines[0])] + lines[1:],
             "line 1: header differs from its canonical text at column 3: "
             "expected 'record\":\"header\",\"version\":1,\"seed\":21,\"', found 'config\":{"),
            (lambda lines: [lines[0].replace("[0.25,", "[0.90,", 1)] + lines[1:],
             "line 1: header differs from its canonical text at column 85: "
             "expected ',0.25,0.25,0.25],\"basis_mode\":"),
        ],
    )
    def test_corrupt_files_raise_parse_errors(self, tmp_path, mangle, hint):
        session = self._small(n=8)
        path = tmp_path / "session.qkdlog"
        save_transcript(session, path)
        lines = path.read_text().splitlines()
        bad = tmp_path / "bad.qkdlog"
        bad.write_text("\n".join(mangle(lines)) + "\n")
        with pytest.raises(ParseError) as err:
            load_transcript(bad)
        assert hint in str(err.value)

    @pytest.mark.parametrize("kinds, detail", [
        (bytearray(b"\x00\x01"), "got a bytearray"), ([0, 1], "got a list"),
        (np.array([0, 1], np.uint8), "got a ndarray"), (b"\x00\x40", "round 1 has kind 64"),
        (b"\x3f\x00\xff\x40", "round 2 has kind 255"),
    ], ids=["bytearray", "list", "array", "kind-64", "kind-255"])
    def test_building_refuses_kinds_that_are_not_bytes_below_64(self, kinds, detail):
        with pytest.raises(ValueError,
                           match=f"^kinds must be bytes of kind indices below 64, {detail}$"):
            Transcript(seed=0, config={}, kinds=kinds)

    @pytest.mark.parametrize(
        "alice, bob, eve",
        [
            (AlicePolicy.uniform(), BobPolicy(), None),
            (AlicePolicy.family(0.8), BobPolicy(BasisMode.ALWAYS_Z),
             InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5)),
            (AlicePolicy.family(0.9), BobPolicy(),
             InterceptResend(PhaseChoice.PHI_HALF_PI, SpinBasis.Z)),
        ],
        ids=["uniform", "tapped-always-z", "full-tap"],
    )
    def test_respelled_round_lines_are_refused_at_the_first(self, tmp_path, alice, bob, eve):
        session = run_session(600, alice, bob, eve=eve, seed=17)
        path = tmp_path / "session.qkdlog"
        save_transcript(session, path)
        lines = path.read_text().splitlines()
        respelled = [json.dumps(dict(reversed(json.loads(line).items()))) for line in lines[1:-1]]
        assert all(new != old for new, old in zip(respelled, lines[1:-1]))
        other = tmp_path / "respelled.qkdlog"
        other.write_text("\n".join([lines[0]] + respelled + [lines[-1]]) + "\n")
        assert load_transcript(path) == session
        with pytest.raises(ParseError) as err:
            load_transcript(other)
        assert str(err.value).startswith(
            "line 2: round 0 differs from its canonical text at column 3: "
            "expected 'record\":\"round\",\"round_index\":0,\"label\":', "
            "found 'decode_failed\": false, \"bob_bit\": ")

    @pytest.mark.parametrize("edit, line, what, found", [
        ("crlf", 1, "header", r"'\r\n'"), ("trailing-spaces", 6, "round 4", r"'  \n'"),
        ("no-final-newline", 302, "footer", "''"),
    ])
    def test_every_line_must_end_in_one_newline(self, tmp_path, edit, line, what, found):
        session = run_session(300, AlicePolicy.family(0.9), BobPolicy(), seed=12,
                              eve=InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5))
        buf = io.StringIO()
        save_transcript(session, buf)
        text = buf.getvalue()
        lines = text.splitlines(keepends=True)
        if edit == "crlf":
            text = text.replace("\n", "\r\n")
        elif edit == "trailing-spaces":
            lines[5] = lines[5][:-1] + "  \n"
            text = "".join(lines)
        else:
            text = text[:-1]
        assert load_transcript(io.StringIO(buf.getvalue())) == session
        path = tmp_path / "edited.qkdlog"
        path.write_bytes(text.encode("utf-8"))
        for src in (io.StringIO(text), path):  # a file is read with its line ends untranslated
            with pytest.raises(ParseError) as err:
                load_transcript(src)
            column = len(buf.getvalue().splitlines(keepends=True)[line - 1])  # the newline's
            assert str(err.value) == (f"line {line}: {what} differs from its canonical "
                                      f"text at column {column}: expected '\\n', found {found}")

    def test_round_line_with_extra_text_at_end_of_file_is_refused(self):
        session = self._small(n=3)
        buf = io.StringIO()
        save_transcript(session, buf)
        lines = buf.getvalue().splitlines()
        # the last line is a canonical round line plus one character, without newline
        with pytest.raises(ParseError) as err:
            load_transcript(io.StringIO("\n".join(lines[:3]) + "\n" + lines[3] + "x"))
        assert str(err.value) == (f"line 4: round 2 differs from its canonical text at column "
                                  f"{len(lines[3]) + 1}: expected '\\n', found 'x'")

    def test_version_mismatch_rejected(self, tmp_path):
        session = self._small(n=4)
        path = tmp_path / "session.qkdlog"
        save_transcript(session, path)
        lines = path.read_text().splitlines()
        head = json.loads(lines[0])
        head["version"] = 99
        bad = tmp_path / "bad.qkdlog"
        bad.write_text("\n".join([json.dumps(head)] + lines[1:]) + "\n")
        with pytest.raises(ParseError, match="version"):
            load_transcript(bad)

    def test_empty_transcript_object_permitted(self):
        empty = Transcript(seed=0, config={}, kinds=b"")
        assert empty.keep_fraction() == 0.0


class TestOneSpellingPerKey:
    def test_round_objects_have_the_keys_in_order(self):
        eve = InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5)
        session = run_session(n_rounds=64, alice=AlicePolicy.uniform(), bob=BobPolicy(),
                              eve=eve, seed=4)
        buf = io.StringIO()
        save_transcript(session, buf)
        for line in buf.getvalue().splitlines()[1:-1]:
            assert tuple(json.loads(line)) == ("record", "round_index", *_ROUND_KEYS)


class TestReplayOfAMalformedHeader:
    @pytest.mark.parametrize("edit, key", [
        pytest.param(lambda cfg: cfg.pop("alice_weights"), "alice_weights", id="no-weights"),
        pytest.param(lambda cfg: cfg.pop("basis_mode"), "basis_mode", id="no-basis-mode"),
        pytest.param(lambda cfg: cfg.update(basis_mode="sideways"), "basis_mode",
                     id="basis-mode-sideways"),
        pytest.param(lambda cfg: cfg.update(alice_weights="abcd"), "alice_weights",
                     id="weights-abcd"),
        pytest.param(lambda cfg: cfg.update(alice_weights=5), "alice_weights",
                     id="weights-not-a-list"),
        pytest.param(lambda cfg: cfg.update(alice_weights=[0.5] * 4), "alice_weights",
                     id="weights-not-summing-to-1"),
        pytest.param(lambda cfg: cfg.update(alice_weights=[True, False, False, False]),
                     "alice_weights", id="weights-of-booleans"),
        pytest.param(lambda cfg: cfg.update(alice_weights="0001"), "alice_weights",
                     id="weights-0001"),
        pytest.param(lambda cfg: cfg.update(eve={"type": "intercept_resend", "phi": "half",
                                                 "basis": "y"}), "phi", id="eve-phi-half"),
        *(pytest.param(lambda cfg, fraction=fraction: cfg.update(
            eve={"type": "intercept_resend", "phi": "0", "basis": "y", "fraction": fraction}),
            "fraction", id=f"eve-fraction-{fraction}") for fraction in (2.0, -0.5, float("nan"))),
    ])
    def test_replay_raises_a_config_error_naming_the_key(self, tmp_path, edit, key):
        session = run_session(n_rounds=8, alice=AlicePolicy.uniform(), bob=BobPolicy(), seed=2)
        path = tmp_path / "session.qkdlog"
        save_transcript(session, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        edit(header["config"])
        path.write_text("\n".join([json.dumps(header, separators=(",", ":"))] + lines[1:]) + "\n")
        loaded = load_transcript(path)
        with pytest.raises(ConfigError, match=key):
            replay_session(loaded)


def _recount(rounds: list) -> dict:
    """The summary figures by a walk over the records, one field read at a time.

    The oracle for ``Transcript.kind_counts``: it finds each record's kind
    index from its draws, and never looks at the per-kind columns.
    """
    kept = [r for r in rounds if r.verdict is Verdict.KEEP]
    decoded = [r for r in kept if r.bob_bit is not None]
    counts = [0] * 64
    for r in rounds:
        label = list(StateLabel).index(r.label)
        phi = (PhaseChoice.PHI_0, PhaseChoice.PHI_HALF_PI).index(r.phi)
        basis = (SpinBasis.Z, SpinBasis.Y).index(r.basis)
        outcome = OUTCOMES.index(r.outcome)
        kind = ((label * 2 + phi) * 2 + basis) * 4 + outcome
        assert _KINDS[kind] == r[1:]
        counts[kind] += 1
    return {
        "kind_counts": counts,
        "keep_fraction": len(kept) / len(rounds) if rounds else 0.0,
        "decode_failures": sum(r.decode_failed for r in rounds),
        "abort_counts": {label: sum(r.verdict is Verdict.ABORT and r.label is label
                                    for r in rounds) for label in StateLabel},
        "qber": (sum(r.bob_bit != r.alice_bit for r in decoded), len(decoded)),
        "declarations": [(r.round_index, r.label) for r in rounds if r.verdict is Verdict.ABORT],
        "alice_key": [r.alice_bit for r in kept],
        "bob_key": [r.bob_bit for r in decoded],
    }


def _figures(transcript: Transcript) -> dict:
    """The same figures as the transcript reports them."""
    est = qber(transcript)
    return {
        "kind_counts": transcript.kind_counts.tolist(),
        "keep_fraction": transcript.keep_fraction(),
        "decode_failures": transcript.decode_failures(),
        "abort_counts": transcript.abort_counts(),
        "qber": (est.mismatches, est.kept),
        "declarations": transcript.declarations,
        "alice_key": transcript.alice_key,
        "bob_key": transcript.bob_key,
    }


class TestKindCounts:
    @pytest.fixture(scope="class", params=["uniform", "always-z-tapped", "full-tap-2**70"])
    def session(self, request):
        return {
            "uniform": lambda: run_session(4000, AlicePolicy.uniform(), BobPolicy(), seed=31),
            "always-z-tapped": lambda: run_session(
                4000, AlicePolicy.family(0.8), BobPolicy(BasisMode.ALWAYS_Z),
                eve=InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5), seed=32),
            "full-tap-2**70": lambda: run_session(
                4000, AlicePolicy.family(0.9), BobPolicy(),
                eve=InterceptResend(PhaseChoice.PHI_HALF_PI, SpinBasis.Z), seed=2**70),
        }[request.param]()

    def test_figures_from_kind_counts_equal_the_recount(self, session):
        assert _figures(session) == _recount(session.rounds)
        assert sum(session.kind_counts) == len(session.rounds)

    def test_every_session_sees_aborts_and_mismatches_where_tapped(self, session):
        figures = _figures(session)
        assert sum(figures["abort_counts"].values()) > 0 and figures["qber"][1] > 0
        if session.config["eve"] is not None:
            assert figures["qber"][0] > 0

    def test_load_and_replay_count_the_same_kinds(self, session):
        buf = io.StringIO()
        save_transcript(session, buf)
        loaded = load_transcript(io.StringIO(buf.getvalue()))
        replayed = replay_session(session)
        for other in (loaded, replayed):
            assert other.kinds == session.kinds
            assert other.kind_counts.tolist() == session.kind_counts.tolist()
            assert _figures(other) == _figures(session)

    def test_a_transcript_built_by_hand_counts_its_rounds(self, session):
        # each record's slice finds its kind index in _KINDS: the rounds view inverts
        by_hand = Transcript(session.seed, session.config,
                             bytes(_KINDS.index(r[1:]) for r in session.rounds))
        assert _figures(by_hand) == _recount(session.rounds)
        assert by_hand.keep_fraction() > 0.0 and by_hand == session

    def test_counting_a_million_rounds_copies_no_more_than_a_block(self):
        # the kinds are counted when the transcript is built, so the trace spans the build
        kinds = np.random.default_rng(3).integers(0, 64, 10**6, dtype=np.uint8)
        data = kinds.tobytes()
        tracemalloc.start()
        try:
            transcript = Transcript(seed=0, config={}, kinds=data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.array_equal(transcript.kind_counts, np.bincount(kinds, minlength=64))

    def test_kind_counts_are_a_read_only_field_outside_eq_and_repr(self, session):
        with pytest.raises(ValueError, match="read-only"):
            session.kind_counts[0] += 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            session.kind_counts = np.zeros(64, np.intp)
        assert repr(session) == (f"Transcript(seed={session.seed!r}, config={session.config!r}, "
                                 f"kinds={session.kinds!r})")
        other = Transcript(session.seed, session.config, session.kinds)
        object.__setattr__(other, "kind_counts", np.zeros(64, np.intp))
        assert other == session
        pickled = [pickle.loads(pickle.dumps(session, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in (copy.copy(session), copy.deepcopy(session), *pickled):
            assert again == session
            assert again.kind_counts.tolist() == session.kind_counts.tolist()
            assert not again.kind_counts.flags.writeable

    def test_kinds_are_counted_once_when_built_and_never_by_the_summary(self, monkeypatch):
        bincount, calls = np.bincount, []
        monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(a) or bincount(*a, **k))
        session = run_session(3000, AlicePolicy.family(0.9), BobPolicy(),
                              eve=InterceptResend(PhaseChoice.PHI_0, SpinBasis.Y, 0.5), seed=3)
        # one pass: a call per block of rounds, each block counted once
        block = protocol._ROUND_BLOCK
        assert [len(a[0]) for a in calls] == [min(block, 3000 - s) for s in range(0, 3000, block)]
        calls.clear()
        code, out, payload = cli._summarize(session, "session.qkdlog", 0)
        assert calls == []
        assert (payload["kept"] + payload["aborted"], payload["qber"]["kept"]) == (
            3000, payload["kept"])
        assert payload["reports"] and code in (cli.EXIT_OK, cli.EXIT_INSECURE)

    def test_an_empty_transcript_has_zero_counts(self):
        empty = Transcript(seed=0, config={}, kinds=b"")
        assert empty.kind_counts.tolist() == [0] * 64
        assert empty.abort_counts() == {label: 0 for label in StateLabel}
        assert empty.decode_failures() == 0
