"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys

import pytest

import bench
import warmup
from tracer import Tracer


@pytest.fixture(scope="module")
def pathspin():
    ps = warmup.import_pathspin()
    warmup.warm_up(ps)
    return ps, importlib.import_module("pathspin.cli")


@pytest.fixture
def scratch(request):
    path = bench.OUT / f"selftest-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_smoke_workload_is_correct(pathspin, name, trace):
    before = Tracer.originals()
    result = bench.run_workload(*pathspin, name, 1, 0.2, trace, bench.SMOKE)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    # the tapped run and the audit check of its transcript exit 0 despite key errors
    assert result["figures"]["false_secure_ratio"] == {"simulate-tapped": 1.0, "audit": 0.5}.get(name, 0.0)
    assert bench.report(result, trace)["metrics"].keys() == {m["name"] for m in bench.metric_specs(trace)}
    after = Tracer.originals()
    assert all(after[key] is original for key, original in before.items())


def test_traced_counts_repeat_exactly(pathspin):
    counts = []
    for _ in range(2):
        metrics = bench.run_workload(*pathspin, "simulate-tapped", 3, 0.1, True, bench.SMOKE)["metrics"]
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s") and k != "trace.overhead_ratio"})
    assert counts[0] == counts[1]
    assert counts[0]["protocol.rounds"] == counts[0]["adversary.tap_calls"] == bench.SMOKE.rounds


def test_trace_count_check_catches_a_missed_draw(pathspin, scratch):
    ps, cli = pathspin
    spec = bench.SessionSpec("honest", 5, 50, 0.8, "none")
    with Tracer() as tracer:
        bench.invoke(cli, spec.argv(scratch / "session.qkdlog"))
    layer = tracer.layer_metrics()
    assert layer["qmath.rng_draws"] == 4 * spec.rounds
    assert bench.trace_count_problems(ps, tracer, layer, [spec]) == []
    layer["qmath.rng_draws"] -= 1
    assert bench.trace_count_problems(ps, tracer, layer, [spec])


def test_flipped_byte_trips_the_digest_check(pathspin, scratch):
    ps, cli = pathspin
    spec = bench.SessionSpec("honest", 7, 300, 0.8, "none")
    path = scratch / "session.qkdlog"
    assert bench.invoke(cli, spec.argv(path)).code == 0
    pin = bench.sha256_file(path)
    assert bench.digest_problems(path, pin) == []
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    assert bench.digest_problems(path, pin)


def test_digests_are_pinned_for_the_default_seed_only():
    pins = json.loads((bench.BENCH_DIR / "digests.json").read_text())
    for tag in bench.SESSIONS:
        assert bench.pinned_digest(tag, pins["seed"], pins["rounds"]) == pins["sha256"][tag]
        assert bench.pinned_digest(tag, pins["seed"] + 1, pins["rounds"]) is None
        assert bench.pinned_digest(tag, pins["seed"], bench.SMOKE.rounds) is None


def test_tracer_restores_every_function_even_on_error(pathspin):
    before = Tracer.originals()
    with pytest.raises(RuntimeError):
        with Tracer():
            during = Tracer.originals()
            raise RuntimeError("inside the traced section")
    assert all(during[key] is not original for key, original in before.items())
    after = Tracer.originals()
    assert all(after[key] is original for key, original in before.items())


def test_fails_without_the_program(scratch):
    """Given only BENCHMARK.json and perfbench/, it exits non-zero and prints no result."""
    shutil.copy(bench.ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(bench.BENCH_DIR, scratch / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
