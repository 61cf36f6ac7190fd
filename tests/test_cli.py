"""End-to-end command-line behavior and exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pathspin
from pathspin import cli, load_transcript
from pathspin.cli import (
    EXIT_ERROR,
    EXIT_INSECURE,
    EXIT_OK,
    build_parser,
    main,
    parse_eve,
    parse_weights,
)
from pathspin.optics import OUTCOMES


class TestParsers:
    def test_weights_uniform(self):
        assert parse_weights("uniform") == (0.25, 0.25, 0.25, 0.25)

    def test_weights_family(self):
        w = parse_weights("family:0.7")
        assert abs(w[0] - 0.7) < 1e-12 and abs(w[1] - 0.1) < 1e-12

    def test_weights_explicit(self):
        assert parse_weights("0.4,0.2,0.2,0.2") == (0.4, 0.2, 0.2, 0.2)

    def test_weights_reject_wrong_arity(self):
        with pytest.raises(ValueError):
            parse_weights("0.5,0.5")

    def test_eve_none(self):
        assert parse_eve("none") is None

    def test_eve_with_fraction(self):
        eve = parse_eve("pi/2,z,0.25")
        assert eve.fraction == 0.25 and eve.basis.value == "z"

    def test_eve_rejects_bad_phase(self):
        with pytest.raises(ValueError):
            parse_eve("1.57,z")


class TestRunCommand:
    def test_uniform_run_is_insecure(self, tmp_path, capsys):
        out = tmp_path / "t.qkdlog"
        code = main(["run", "--rounds", "1500", "--seed", "3", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == EXIT_INSECURE
        assert "INSECURE" in captured
        assert out.exists()
        assert len(load_transcript(out).rounds) == 1500

    def test_concentrated_run_is_secure(self, tmp_path):
        out = tmp_path / "t.qkdlog"
        code = main(["run", "--rounds", "3000", "--seed", "3",
                     "--alice-weights", "family:0.9", "--out", str(out)])
        assert code == EXIT_OK

    def test_json_summary_fields(self, tmp_path, capsys):
        out = tmp_path / "t.qkdlog"
        code = main(["run", "--rounds", "1200", "--seed", "5",
                     "--out", str(out), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_INSECURE
        assert payload["rounds"] == 1200
        assert payload["verdict"] == "insecure"
        assert payload["qber"]["mismatches"] == 0
        assert {r["frame"] for r in payload["reports"]} == {"weights", "abinitio"}
        assert payload["frame_gap"] < 1e-10

    def test_min_aborts_blocks_verdict(self, tmp_path, capsys):
        out = tmp_path / "t.qkdlog"
        code = main(["run", "--rounds", "60", "--seed", "1", "--out", str(out),
                     "--min-aborts", "500"])
        assert code == EXIT_ERROR
        assert "NO VERDICT" in capsys.readouterr().out

    def test_no_declared_aborts_gives_no_verdict(self, tmp_path, capsys):
        out = tmp_path / "t.qkdlog"
        code = main(["run", "--rounds", "1", "--seed", "0", "--out", str(out), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_ERROR
        assert payload["aborted"] == 0
        assert payload["reports"] == []
        assert payload["verdict"] == "insufficient_data"

    def test_eve_flag_raises_qber(self, tmp_path, capsys):
        out = tmp_path / "t.qkdlog"
        code = main(["run", "--rounds", "4000", "--seed", "9", "--out", str(out),
                     "--eve", "0,y", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_INSECURE  # uniform weights stay insecure either way
        assert payload["qber"]["rate"] > 0.15

    @pytest.mark.parametrize("spec, message", [
        ("0,y,1.5", "intercepted fraction must lie in [0, 1], got 1.5"),
        ("0", "adversary must be 'PHI,BASIS[,FRACTION]', got '0'"),
        ("0,y,0.5,1", "adversary must be 'PHI,BASIS[,FRACTION]', got '0,y,0.5,1'"),
    ])
    def test_bad_eve_spec_fails_cleanly(self, tmp_path, capsys, spec, message):
        code = main(["run", "--rounds", "10", "--eve", spec,
                     "--out", str(tmp_path / "t.qkdlog")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_weights_fail_cleanly(self, tmp_path, capsys):
        code = main(["run", "--rounds", "10", "--alice-weights", "0.5,0.5,0.5,0.5",
                     "--out", str(tmp_path / "t.qkdlog")])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_jobs_below_one_fails_cleanly(self, tmp_path, capsys, source):
        out = tmp_path / "t.qkdlog"
        argv = ["run", "--rounds", "10", "--out", str(out)]
        if source == "flag":
            argv += ["--jobs", "0"]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"jobs": 0}))
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == "error: jobs must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_rounds_below_one_fails_cleanly(self, tmp_path, capsys, source):
        out = tmp_path / "t.qkdlog"
        argv = ["run", "--out", str(out)]
        if source == "flag":
            argv += ["--rounds", "0"]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"rounds": 0}))
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == "error: rounds must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, text, message", [
        ("--eve", "0,y,abc", "intercept_resend fraction must be a number, got 'abc'"),
        ("--alice-weights", "family:abc", "alice_weights must be a number, got 'abc'"),
        ("--alice-weights", "0.5,x,0.2,0.3", "alice_weights must be a number, got 'x'"),
    ], ids=["eve-fraction", "family-parameter", "explicit-weight"])
    def test_a_flag_number_that_does_not_parse_is_named(self, tmp_path, capsys, flag, text,
                                                        message):
        out = tmp_path / "t.qkdlog"
        assert main(["run", "--rounds", "10", flag, text, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestConfigFile:
    def test_config_file_drives_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "rounds": 800,
            "seed": 11,
            "alice_weights": "family:0.9",
            "out": str(tmp_path / "c.qkdlog"),
        }))
        code = main(["run", "--config", str(cfg), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["rounds"] == 800 and payload["seed"] == 11

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rounds": 800, "out": str(tmp_path / "c.qkdlog")}))
        code = main(["run", "--config", str(cfg), "--rounds", "300", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (EXIT_OK, EXIT_INSECURE)
        assert payload["rounds"] == 300

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rounds": 10, "mystery": 1}))
        assert main(["run", "--config", str(cfg)]) == EXIT_ERROR
        assert "mystery" in capsys.readouterr().err

    def test_a_frame_key_is_refused_as_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        out = tmp_path / "c.qkdlog"
        cfg.write_text(json.dumps({"rounds": 10, "frame": "both", "out": str(out)}))
        assert main(["run", "--config", str(cfg)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {cfg}: unknown config keys ['frame']\n"
        assert not out.exists()

    def test_config_eve_mapping(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "rounds": 600,
            "eve": {"type": "intercept_resend", "phi": "0", "basis": "y"},
            "out": str(tmp_path / "c.qkdlog"),
        }))
        code = main(["run", "--config", str(cfg), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_INSECURE
        assert payload["qber"]["rate"] > 0.1

    @pytest.mark.parametrize("eve, missing", [
        ({"type": "intercept_resend", "basis": "y"}, "phi"),
        ({"type": "intercept_resend", "phi": "0"}, "basis"),
    ])
    def test_config_eve_missing_setting_fails_cleanly(self, tmp_path, capsys, eve, missing):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rounds": 10, "eve": eve}))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "t.qkdlog")])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error:") and missing in err

    @pytest.mark.parametrize("text, hint", [
        ('{"rounds": Infinity}', "rounds"),
        ('{"rounds": null}', "rounds"),
        ('{"alice_weights": [null, 0, 0, 1]}', "weights"),
        ('{"eve": {"type": "intercept_resend", "phi": "0", "basis": "y", "fraction": null}}',
         "fraction"),
        ('{"alice_weights": 5}', "weights"),
        ('{"eve": 5}', "adversary"),
        ('{"rounds": 2.7}', "rounds"),
        ('{"rounds": true}', "rounds"),
        pytest.param('{"alice_weights": [%s, 0, 0, 0]}' % ("1" * 400), "alice_weights",
                     id="weight-of-400-digits"),
        pytest.param('{"eve": {"type": "intercept_resend", "phi": "0", "basis": "y",'
                     ' "fraction": %s}}' % ("1" * 400), "fraction", id="fraction-of-400-digits"),
        pytest.param("[" * 100000 + "]" * 100000, "invalid JSON", id="nested-100000-deep"),
        pytest.param('{"rounds": %s}' % ("1" * 5000), "invalid JSON (integer literal too long)",
                     id="rounds-of-5000-digits"),
        ('{"min_aborts": -1}', "min_aborts"),
        ('{"out": 5}', "out must be a string, got 5"),
    ])
    def test_config_value_of_wrong_type_fails_cleanly(self, tmp_path, capsys, text, hint):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "t.qkdlog"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error:") and hint in err
        assert not out.exists()

    def test_non_object_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2, 3]")
        assert main(["run", "--config", str(cfg)]) == EXIT_ERROR


class TestCheckCommand:
    def test_check_reproduces_run_verdict(self, tmp_path, capsys):
        out = tmp_path / "t.qkdlog"
        assert main(["run", "--rounds", "1500", "--seed", "3",
                     "--out", str(out)]) == EXIT_INSECURE
        capsys.readouterr()
        code = main(["check", str(out)])
        assert code == EXIT_INSECURE
        assert "INSECURE" in capsys.readouterr().out

    def test_check_secure_transcript(self, tmp_path, capsys):
        out = tmp_path / "t.qkdlog"
        assert main(["run", "--rounds", "3000", "--seed", "3",
                     "--alice-weights", "family:0.9", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["check", str(out)]) == EXIT_OK

    def test_check_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.qkdlog")]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("not json\n", "invalid JSON (Expecting value)"),
        ("", "empty transcript, missing header record"),
    ], ids=["not-json", "empty"])
    def test_check_corrupt_file(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.qkdlog"
        bad.write_text(text)
        assert main(["check", str(bad)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: transcript parse failed: line 1: {message}\n"

    def test_check_of_a_file_that_is_not_utf8_is_a_parse_error(self, tmp_path, capsys):
        out = tmp_path / "t.qkdlog"
        main(["run", "--rounds", "50", "--seed", "5", "--out", str(out)])
        capsys.readouterr()
        data = out.read_bytes().split(b"\n")
        data[3] = data[3].replace(b'"label":"', b'"label":"\xff', 1)
        out.write_bytes(b"\n".join(data))
        assert main(["check", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == ("error: transcript parse failed: transcript is not "
                                           "UTF-8 text (byte 0xff: invalid start byte)\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--min-aborts", "-1", "min_aborts must be >= 0, got -1"),
    ])
    def test_check_rejects_a_bad_flag_before_loading(self, tmp_path, capsys, flag, value,
                                                     message):
        code = main(["check", str(tmp_path / "nope.qkdlog"), flag, value])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags, audit", [
        pytest.param(["--rounds", "3000", "--alice-weights", "family:0.9"], [], id="secure"),
        pytest.param(["--rounds", "3000", "--alice-weights", "family:0.9", "--eve", "0,y,0.5"],
                     [], id="tapped"),
        pytest.param(["--rounds", "1500"], [], id="insecure"),
        pytest.param(["--rounds", "300"], ["--min-aborts", "500"], id="too-few-aborts"),
        pytest.param(["--rounds", "1"], [], id="no-aborts"),
        pytest.param(["--rounds", "300"], ["--min-aborts", "0"], id="min-aborts-0"),
    ])
    def test_check_json_equals_run_json(self, tmp_path, capsys, flags, audit):
        out = tmp_path / "t.qkdlog"
        run_code = main(["run", "--seed", "3", "--out", str(out), "--json", *flags, *audit])
        run = json.loads(capsys.readouterr().out)
        check_code = main(["check", str(out), "--json", *audit])
        check = json.loads(capsys.readouterr().out)
        assert check == run
        assert check_code == run_code
        if "--eve" in flags:
            assert check["qber"]["mismatches"] > 0

    def test_check_of_zero_rounds_gives_no_verdict(self, tmp_path, capsys):
        empty = tmp_path / "empty.qkdlog"
        empty.write_text(
            '{"record":"header","version":1,"seed":0,"config":{"n_rounds":0}}\n'
            '{"record":"footer","declarations":[],"alice_key":"","bob_key":""}\n'
        )
        code = main(["check", str(empty)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert "verdict: NO VERDICT" in captured.out and "qber=n/a" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("field, edit, verdict", [
        ("verdict", lambda v: "abort" if v == "keep" else "keep", "keep"),
        ("label", lambda label: {"psi": "phi", "psi_perp": "phi_perp",
                                 "phi": "psi", "phi_perp": "psi_perp"}[label], "abort"),
    ])
    def test_check_rejects_a_round_its_draws_refute(self, tmp_path, capsys, field, edit, verdict):
        out = tmp_path / "t.qkdlog"
        main(["run", "--rounds", "400", "--seed", "5", "--out", str(out)])
        capsys.readouterr()
        lines = out.read_text().splitlines()
        n = next(i for i, line in enumerate(lines) if '"verdict":"keep"' in line)
        obj = json.loads(lines[n])
        obj[field] = edit(obj[field])
        lines[n] = json.dumps(obj, separators=(",", ":"))
        out.write_text("\n".join(lines) + "\n")
        assert main(["check", str(out)]) == EXIT_ERROR
        # the closest canonical line draws the values written, so it differs at the verdict:
        # the line's own for an edited verdict, the other group's for an edited label
        column = lines[n].index('"verdict":') + len('"verdict":"') + 1
        assert capsys.readouterr().err.startswith(
            f"error: transcript parse failed: line {n + 1}: round {n - 1} differs from its "
            f"canonical text at column {column}: expected '{verdict}\",\"alice_bit\":"
        )


class TestTableCommand:
    def test_csv_shape(self, capsys):
        assert main(["table"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,m,eta1,eta2"
        assert len(lines) == 9

    def test_verify_passes(self, capsys):
        assert main(["table", "--verify"]) == EXIT_OK
        assert "verified 8 rows" in capsys.readouterr().out

    def test_verify_fails_against_a_perturbed_reference(self, monkeypatch, capsys):
        # the first row's M moved by 0.05, past the 0.01 tolerance
        (p, m, eta1, eta2), *rest = cli.REFERENCE_TABLE
        monkeypatch.setattr(cli, "REFERENCE_TABLE", ((p, m + 0.05, eta1, eta2), *rest))
        assert main(["table", "--verify"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith(f"verify failed at p={p}: M=")
        assert captured.err.endswith(f" vs {m + 0.05}\n")
        assert "verified" not in captured.out

    def test_csv_to_file(self, tmp_path):
        dest = tmp_path / "table.csv"
        assert main(["table", "--out", str(dest)]) == EXIT_OK
        assert dest.read_text().startswith("p,m,eta1,eta2")


class TestSiftTableCommand:
    def test_sixteen_rows_half_kept(self, capsys):
        assert main(["sift-table"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 17  # header + 16 rows
        keeps = [line for line in lines[1:] if " keep " in line]
        assert len(keeps) == 8

    def test_json_rows(self, capsys):
        assert main(["sift-table", "--json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 16
        kept = [r for r in rows if r["verdict"] == "keep"]
        assert len(kept) == 8
        assert all(len(r["support"]) == 2 for r in kept)
        order = [[o.port.value, o.spin.value] for o in OUTCOMES]
        assert all(r["support"] == sorted(r["support"], key=order.index) for r in rows)

    def test_whole_output_is_pinned(self, capsys):
        four = "(tprime,s0) (tprime,s1) (rprime,s0) (rprime,s1)"
        assert main(["sift-table"]) == EXIT_OK
        assert capsys.readouterr() == (
            "state     phi  basis verdict outcome support\n"
            f"psi       0    z     abort   {four}\n"
            "psi       0    y     keep    (tprime,s0) (rprime,s1)\n"
            "psi       pi/2 z     keep    (tprime,s0) (rprime,s1)\n"
            f"psi       pi/2 y     abort   {four}\n"
            f"psi_perp  0    z     abort   {four}\n"
            "psi_perp  0    y     keep    (tprime,s1) (rprime,s0)\n"
            "psi_perp  pi/2 z     keep    (tprime,s1) (rprime,s0)\n"
            f"psi_perp  pi/2 y     abort   {four}\n"
            "phi       0    z     keep    (tprime,s0) (rprime,s1)\n"
            f"phi       0    y     abort   {four}\n"
            f"phi       pi/2 z     abort   {four}\n"
            "phi       pi/2 y     keep    (tprime,s0) (rprime,s1)\n"
            "phi_perp  0    z     keep    (tprime,s1) (rprime,s0)\n"
            f"phi_perp  0    y     abort   {four}\n"
            f"phi_perp  pi/2 z     abort   {four}\n"
            "phi_perp  pi/2 y     keep    (tprime,s1) (rprime,s0)\n", "")
        assert main(["sift-table", "--json"]) == EXIT_OK
        captured = capsys.readouterr()
        # the sha256 of the 322-line JSON form of the same 16 rows
        assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == (
            "2da9aeeb087b749d04c8e804cc090ff35f9d1c6de788b141ca4333e348cf0a91")
        assert captured.err == ""


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["run", "--rounds", "abc"],
        ["check"],
        ["bogus"],
        [],
        ["run", "--frame", "weights"],
        ["check", "t.qkdlog", "--frame", "weights"],
    ], ids=["bad-int", "check-without-path", "unknown-command", "no-command", "run-frame",
            "check-frame"])
    def test_usage_errors_exit_1_not_the_insecure_code(self, argv, capsys, tmp_path,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)  # a command line that parsed would write session.qkdlog here
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_ERROR != EXIT_INSECURE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert "usage:" in capsys.readouterr().out


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    """Enums hash by identity, so no output may follow the order of hashes."""
    src = str(Path(pathspin.__file__).resolve().parent.parent)
    results = []
    for hash_seed in ("0", "1"):
        cwd = tmp_path / hash_seed
        cwd.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "pathspin.cli", "run", "--rounds", "2000", "--seed", "3",
             "--alice-weights", "family:0.9", "--eve", "0,y,0.5", "--out", "t.qkdlog", "--json"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )
        results.append((proc.returncode, proc.stdout, (cwd / "t.qkdlog").read_bytes()))
    assert results[0][0] in (EXIT_OK, EXIT_INSECURE)
    assert json.loads(results[0][1])["rounds"] == 2000
    assert results[0] == results[1]


class TestOneAdversaryGrammar:
    @pytest.mark.parametrize("text, mapping", [
        ("0,y", {"type": "intercept_resend", "phi": "0", "basis": "y"}),
        ("pi/2,z,0.25", {"type": "intercept_resend", "phi": "pi/2", "basis": "z",
                         "fraction": 0.25}),
        (" pi/2 , z ", {"type": "intercept_resend", "phi": "pi/2", "basis": "z"}),
    ])
    def test_flag_is_shorthand_for_the_mapping(self, text, mapping):
        assert parse_eve(text) == parse_eve(mapping)

    @pytest.mark.parametrize("text, key", [
        ("half,y", "phi"),
        ("zero,y", "phi"),
        ("PI/2,Z", "phi"),
        ("1.57,z", "phi"),
        ("0,Y", "basis"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_flag_and_config_refuse_the_same_spellings(self, tmp_path, capsys, text, key,
                                                       source):
        out = tmp_path / "t.qkdlog"
        if source == "flag":
            argv = ["run", "--rounds", "10", "--eve", text]
        else:
            phi, basis = text.split(",")
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"rounds": 10, "eve": {
                "type": "intercept_resend", "phi": phi, "basis": basis}}))
            argv = ["run", "--config", str(cfg)]
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error:") and f"intercept_resend {key} must be" in err
        assert not out.exists()


class TestNumpyScalarsInMessages:
    @pytest.mark.parametrize("weights, message", [
        ("0.5,0.5,0.5,0.5", "weights sum to 2.0, expected 1"),
        ("-0.5,0.5,0.5,0.5", "negative weight in [-0.5, 0.5, 0.5, 0.5]"),
    ])
    def test_weight_errors_print_plain_floats(self, tmp_path, capsys, weights, message):
        out = tmp_path / "t.qkdlog"
        code = main(["run", f"--alice-weights={weights}", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err == f"error: alice_weights: {message}\n"
        assert captured.out == "" and not out.exists()


class TestPinnedSummaryCounts:
    #: ``run --json`` of this session before the summary became a sum over kind counts.
    PINNED = {
        "kept": 1011,
        "aborted": 989,
        "keep_fraction": 0.5055,
        "decode_failures": 0,
        "qber": {"rate": 0.019782393669634024, "mismatches": 20, "kept": 1011,
                 "three_sigma": 0.013138516971962805},
        "abort_counts": {"psi": 896, "psi_perp": 31, "phi": 30, "phi_perp": 32},
    }

    def test_run_and_check_report_the_pinned_counts(self, tmp_path, capsys):
        out = tmp_path / "t.qkdlog"
        main(["run", "--rounds", "2000", "--seed", "5", "--alice-weights", "family:0.9",
              "--eve", "0,y,0.5", "--out", str(out), "--json"])
        run = json.loads(capsys.readouterr().out)
        main(["check", str(out), "--json"])
        check = json.loads(capsys.readouterr().out)
        for payload in (run, check):
            assert {key: payload[key] for key in self.PINNED} == self.PINNED


class TestSummaryText:
    """The human summary of a tapped session, line by line, from ``run`` and from ``check``."""

    LINES = [
        "rounds=3000 kept=1491 aborted=1509 keep_fraction=0.4970",
        "qber=0.017438 (mismatches=26/1491, 3sigma=0.010170)",
        "declared aborts: psi=1364 psi_perp=52 phi=52 phi_perp=41",
        "frame=weights       M=1.660432 lambda=0.904265 mu=0.756167 eta1=0.4692 eta2=0.0308",
        "frame=abinitio      M=1.660432 lambda=0.904265 mu=0.756167 eta1=0.4692 eta2=0.0308",
        None,  # the gap line: its value is rounding noise, so only its form is pinned
        "verdict: SECURE (M = 1.660432 > 1)",
    ]

    def test_run_and_check_print_both_frames_the_gap_and_the_verdict(self, tmp_path, capsys):
        out = str(tmp_path / "t.qkdlog")
        assert main(["run", "--rounds", "3000", "--seed", "5", "--alice-weights", "family:0.9",
                     "--eve", "0,y,0.5", "--out", out]) == EXIT_OK
        run = capsys.readouterr().out.splitlines()
        assert main(["check", out]) == EXIT_OK
        check = capsys.readouterr().out.splitlines()
        assert run[-1] == f"transcript written to {out}"
        assert check[-1] == f"transcript read from {out}"
        for lines in (run[:-1], check[:-1]):
            gap = re.fullmatch(r"frame gap \|dM\|=(\d\.\d{3}e[-+]\d\d)", lines[5])
            assert gap and float(gap.group(1)) < 1e-10, lines[5]
            assert [None if i == 5 else line for i, line in enumerate(lines)] == self.LINES


class TestFixedFramePair:
    """Every summary reports the weights frame, then the ab-initio one; the verdict is the weights
    frame's."""

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_json_reports_both_frames_and_the_weights_verdict(self, tmp_path, capsys, command):
        out = str(tmp_path / "t.qkdlog")
        code = main(["run", "--rounds", "400", "--seed", "2", "--out", out, "--json"])
        payload = json.loads(capsys.readouterr().out)
        if command == "check":
            code = main(["check", out, "--json"])
            payload = json.loads(capsys.readouterr().out)
        ensemble = pathspin.AbortEnsemble(tuple(load_transcript(out).abort_counts().values()))
        weights = pathspin.security_decision(ensemble, pathspin.Frame.WEIGHTS, min_count=1)
        reports = payload["reports"]
        assert [r["frame"] for r in reports] == ["weights", "abinitio"]
        assert reports[0]["m"] == weights.m_value
        assert payload["frame_gap"] == abs(reports[0]["m"] - reports[1]["m"]) < 1e-10
        assert payload["verdict"] == ("secure" if weights.secure else "insecure")
        assert code == (EXIT_OK if weights.secure else EXIT_INSECURE)


class TestOneParserPerProcess:
    """``main`` parses every command line with one parser; no call may see another's flags."""

    def test_main_reuses_one_parser_and_build_parser_makes_a_new_one(self):
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()

    def test_json_flag_does_not_outlive_its_command(self, tmp_path, capsys):
        out = str(tmp_path / "t.qkdlog")
        assert main(["run", "--rounds", "300", "--out", out, "--json"]) != EXIT_ERROR
        assert json.loads(capsys.readouterr().out)["rounds"] == 300
        assert main(["run", "--rounds", "300", "--out", out]) != EXIT_ERROR
        text = capsys.readouterr().out
        assert text.startswith("rounds=300 ") and text.rstrip().endswith(f"written to {out}")

    def test_min_aborts_flag_does_not_outlive_its_command(self, tmp_path, capsys):
        out = str(tmp_path / "t.qkdlog")
        main(["run", "--rounds", "300", "--out", out])
        capsys.readouterr()
        assert main(["check", out, "--min-aborts", "5000", "--json"]) == EXIT_ERROR
        assert json.loads(capsys.readouterr().out)["verdict"] == "insufficient_data"
        assert main(["check", out, "--json"]) != EXIT_ERROR
        assert json.loads(capsys.readouterr().out)["verdict"] in ("secure", "insecure")

    def test_a_usage_error_leaves_the_parser_usable(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--rounds", "abc"])
        assert exc.value.code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err
        out = str(tmp_path / "t.qkdlog")
        assert main(["run", "--rounds", "300", "--out", out]) != EXIT_ERROR
        assert load_transcript(out).rounds and capsys.readouterr().err == ""
