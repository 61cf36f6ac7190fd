#!/usr/bin/env python3
"""pathspin benchmark: four closed-loop workloads driven through ``pathspin.cli.main``.

    python3 perfbench/bench.py --workload simulate-honest --seed 1 --seconds 25 --trace 0
    python3 perfbench/bench.py --workload all     # every end-to-end metric, all workloads
    python3 perfbench/bench.py --smoke            # tiny sizes, all workloads, untraced and traced

One process runs one workload, one command at a time (``jobs=1``).  The
workload seed is an argument of the benchmark; pathspin only sees the
session seeds, weights and taps derived from it.  With ``--trace 0`` the
last line reports the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced section.  Every command's output is checked;
see perfbench/README.md for the workloads, metrics and baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import warmup
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
WORKLOADS = ("simulate-honest", "simulate-tapped", "audit", "short-sessions")
#: Figures printed beside the metrics but given no bound: latency percentiles
#: jump between the machine's two speed modes, and the verdict ratios are 0
#: on most workloads.
FIGURE_UNITS = {"command_s_p50": "s", "command_s_p90": "s", "commands": "count",
                "failed_ops_ratio": "ratio", "false_secure_ratio": "ratio"}


@dataclass(frozen=True)
class Scale:
    rounds: int          # rounds of a simulate session and of each audited transcript
    short_rounds: int    # rounds of one short-sessions run
    traced_repeats: int  # simulate sessions or audit passes in the traced section
    traced_pairs: int    # run+check pairs in the traced section of short-sessions
    setup_probes: int    # fresh processes timed for setup_s


FULL = Scale(rounds=50_000, short_rounds=500, traced_repeats=2, traced_pairs=100, setup_probes=7)
SMOKE = Scale(rounds=2_000, short_rounds=400, traced_repeats=1, traced_pairs=4, setup_probes=1)

#: Simulate sessions: family parameter and ``--eve`` value.  The tap keeps
#: the known false SECURE in view: its key errors never reach the verdict.
SESSIONS = {"honest": (0.8, "none"), "tapped": (0.9, "0,y,0.5")}
SHORT_P = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00)
#: |M - closed_form_family(p)| may reach this many units of 1/sqrt(aborts).
#: Multinomial resampling over p in [0.7, 1] gives a standard deviation of
#: about 1.2 units and a maximum of 4.5 units in 3000 draws.
M_TOLERANCE = 8.0


def session_seed(seed: int, tag: str, k: int = 0) -> int:
    digest = hashlib.sha256(f"pathspin-bench/{tag}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def pinned_digest(tag: str, seed: int, rounds: int) -> str | None:
    """The committed sha256 of a simulate transcript, for the pinned seed only."""
    pins = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    if seed != pins["seed"] or rounds != pins["rounds"]:
        return None
    return pins["sha256"][tag]


def digest_problems(path: Path, expected: str | None) -> list[str]:
    if expected is None:
        return []
    got = sha256_file(path)
    return [] if got == expected else [f"{path.name}: sha256 {got} differs from pinned {expected}"]


# ---------------------------------------------------------------------------
# commands and their checks


@dataclass
class Command:
    argv: list[str]
    code: int | None
    seconds: float
    payload: dict | None
    error: str


def invoke(cli, argv: list[str]) -> Command:
    """Call ``cli.main`` in-process, timing it and parsing its ``--json`` output."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    payload = None
    if code in (0, 2):
        with contextlib.suppress(json.JSONDecodeError):
            payload = json.loads(out.getvalue())
    return Command(argv, code, seconds, payload, err.getvalue().strip())


def verdict_problems(cmd: Command) -> list[str]:
    """Exit 0 must print SECURE and exit 2 INSECURE; anything else fails."""
    where = " ".join(cmd.argv[:2])
    if cmd.code is None:
        return [f"{where}: raised {cmd.error.splitlines()[-1]}"]
    if cmd.code not in (0, 2):
        return [f"{where}: exit {cmd.code} ({cmd.error})"]
    if cmd.payload is None:
        return [f"{where}: no JSON summary"]
    want = "secure" if cmd.code == 0 else "insecure"
    if cmd.payload.get("verdict") != want:
        return [f"{where}: exit {cmd.code} with verdict {cmd.payload.get('verdict')!r}"]
    return []


def mismatches(run_payload: dict) -> int:
    est = run_payload.get("qber")
    return est["mismatches"] if est else 0


def is_false_secure(cmd: Command, key_mismatches: int) -> bool:
    """Exit 0 although the transcript shows key errors or M <= 1."""
    if cmd.code != 0 or cmd.payload is None:
        return False
    return key_mismatches > 0 or cmd.payload["reports"][0]["m"] <= 1.0


@dataclass(frozen=True)
class SessionSpec:
    tag: str
    seed: int
    rounds: int
    p: float
    eve: str

    @property
    def honest(self) -> bool:
        return self.eve == "none"

    def argv(self, out: Path) -> list[str]:
        return ["run", "--rounds", str(self.rounds), "--seed", str(self.seed),
                "--alice-weights", f"family:{self.p}", "--basis-mode", "independent_uniform",
                "--eve", self.eve, "--jobs", "1", "--out", str(out), "--json"]


def run_problems(ps, cmd: Command, spec: SessionSpec) -> list[str]:
    problems = verdict_problems(cmd)
    if problems:
        return problems
    p = cmd.payload
    if p["rounds"] != spec.rounds or p["kept"] + p["aborted"] != spec.rounds:
        problems.append(f"run: {p['kept']} kept + {p['aborted']} aborted != {spec.rounds} rounds")
    if spec.honest and (mismatches(p) or p["decode_failures"]):
        problems.append(f"run: honest session with {mismatches(p)} key mismatches and "
                        f"{p['decode_failures']} decode failures")
    m = p["reports"][0]["m"]
    expected = ps.closed_form_family(spec.p)[2]
    tol = M_TOLERANCE / math.sqrt(max(p["aborted"], 1))
    if abs(m - expected) > tol:
        problems.append(f"run: M = {m:.6f}, closed form {expected:.6f} +- {tol:.4f} at p = {spec.p}")
    return problems


def check_problems(cmd: Command, run: Command | None) -> list[str]:
    """``check`` must reproduce the run's verdict, M and kept/aborted counts."""
    problems = verdict_problems(cmd)
    if problems:
        return problems
    if run is None or run.payload is None:
        return ["check: the run that wrote this transcript failed"]
    got, want = cmd.payload, run.payload
    for key in ("kept", "aborted"):
        if got[key] != want[key]:
            problems.append(f"check: {key} {got[key]} != run's {want[key]}")
    if [r["m"] for r in got["reports"]] != [r["m"] for r in want["reports"]]:
        problems.append("check: M differs from run's")
    if cmd.code != run.code:
        problems.append(f"check: exit {cmd.code} != run's {run.code}")
    return problems


def transcript_problems(ps, path: Path, run: Command, spec: SessionSpec) -> list[str]:
    """save -> load -> save must give identical bytes; key errors must match the run's."""
    data = path.read_bytes()
    transcript = ps.load_transcript(io.StringIO(data.decode("utf-8")))
    again = io.StringIO()
    ps.save_transcript(transcript, again)
    problems = []
    if again.getvalue().encode("utf-8") != data:
        problems.append(f"{path.name}: save -> load -> save changed the bytes")
    wrong = sum(r.bob_bit is not None and r.bob_bit != r.alice_bit for r in transcript.rounds)
    if wrong != mismatches(run.payload):
        problems.append(f"{path.name}: {wrong} key mismatches, run reported {mismatches(run.payload)}")
    if spec.honest and transcript.decode_failures():
        problems.append(f"{path.name}: {transcript.decode_failures()} decode failures")
    return problems


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Unit:
    """One timed repeat: a simulate session, an audit pass or a run+check pair."""

    seconds: float
    rounds: int
    command_seconds: list[float]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    false_secure: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str], false_secure: bool = False) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.false_secure += false_secure
        self.problems.extend(problems)


class Workload:
    def __init__(self, ps, cli, seed: int, scale: Scale, work: Path):
        self.ps, self.cli, self.seed, self.scale, self.work = ps, cli, seed, scale, work
        # fixed, so the traced section's counts repeat exactly
        self.traced_units = scale.traced_repeats
        self.tally = Tally()
        self.bytes_written = 0
        self.rounds_written = 0

    def simulate_spec(self, tag: str) -> SessionSpec:
        p, eve = SESSIONS[tag]
        return SessionSpec(tag, session_seed(self.seed, tag), self.scale.rounds, p, eve)

    def prepare(self) -> None:
        """Untimed preparation of the workload's inputs."""

    def unit(self, k: int) -> Unit:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed checks after the timed sections."""

    def traced_sessions(self) -> list[SessionSpec]:
        """The sessions the traced section simulates, for the count self-check."""
        return []

    def bytes_per_round(self) -> float:
        return self.bytes_written / self.rounds_written


class Simulate(Workload):
    """``pathspin run`` of one session per repeat, the same inputs each time."""

    def __init__(self, *args, tag: str):
        super().__init__(*args)
        self.spec = self.simulate_spec(tag)
        self.path = self.work / f"{tag}.qkdlog"
        self.pin = pinned_digest(tag, self.seed, self.spec.rounds)
        self.first_digest: str | None = None
        self.last_good: Command | None = None

    def unit(self, k: int) -> Unit:
        cmd = invoke(self.cli, self.spec.argv(self.path))
        problems = run_problems(self.ps, cmd, self.spec)
        if not problems:
            digest = sha256_file(self.path)
            self.first_digest = self.first_digest or digest
            if digest != self.first_digest:
                problems.append(f"{self.path.name}: repeat {k} wrote different bytes")
            problems += digest_problems(self.path, self.pin)
            self.bytes_written += self.path.stat().st_size
            self.rounds_written += self.spec.rounds
        if not problems:
            self.last_good = cmd
        self.tally.record(problems, cmd.payload is not None and is_false_secure(cmd, mismatches(cmd.payload)))
        return Unit(cmd.seconds, self.spec.rounds, [cmd.seconds])

    def finish(self) -> None:
        if self.last_good is None:
            return
        check = invoke(self.cli, ["check", str(self.path), "--json"])
        problems = (transcript_problems(self.ps, self.path, self.last_good, self.spec)
                    + check_problems(check, self.last_good))
        if problems:
            self.tally.failed += 1
            self.tally.problems += problems

    def traced_sessions(self) -> list[SessionSpec]:
        return [self.spec] * self.traced_units


class Audit(Workload):
    """``pathspin check`` of both simulate transcripts, written during preparation."""

    def prepare(self) -> None:
        self.sources = []
        for tag in SESSIONS:
            spec = self.simulate_spec(tag)
            path = self.work / f"{tag}.qkdlog"
            run = invoke(self.cli, spec.argv(path))
            problems = run_problems(self.ps, run, spec)
            if not problems:
                problems = digest_problems(path, pinned_digest(tag, self.seed, spec.rounds))
            self.tally.problems += [f"preparation: {p}" for p in problems]
            self.sources.append((spec, path, run if not problems else None))

    def unit(self, k: int) -> Unit:
        times = []
        for spec, path, run in self.sources:
            cmd = invoke(self.cli, ["check", str(path), "--json"])
            shows = mismatches(run.payload) if run else 0
            self.tally.record(check_problems(cmd, run), is_false_secure(cmd, shows))
            times.append(cmd.seconds)
            self.bytes_written += path.stat().st_size
            self.rounds_written += spec.rounds
        return Unit(sum(times), sum(spec.rounds for spec, _, _ in self.sources), times)

    def finish(self) -> None:
        for spec, path, run in self.sources:
            if run is not None:
                self.tally.problems += transcript_problems(self.ps, path, run, spec)


class ShortSessions(Workload):
    """Run+check pairs of ~500 rounds, family p cycling over 0.70..1.00, own seed each."""

    def __init__(self, *args):
        super().__init__(*args)
        self.traced_units = self.scale.traced_pairs
        self.path = self.work / "short.qkdlog"

    def spec(self, k: int) -> SessionSpec:
        return SessionSpec("short", session_seed(self.seed, "short", k), self.scale.short_rounds,
                           SHORT_P[k % len(SHORT_P)], "none")

    def unit(self, k: int) -> Unit:
        spec = self.spec(k)
        self.path.unlink(missing_ok=True)
        start = time.perf_counter()
        run = invoke(self.cli, spec.argv(self.path))
        check = invoke(self.cli, ["check", str(self.path), "--json"])
        seconds = time.perf_counter() - start
        problems = run_problems(self.ps, run, spec)
        if not problems:
            problems = transcript_problems(self.ps, self.path, run, spec)
            self.bytes_written += self.path.stat().st_size
            self.rounds_written += spec.rounds
        good = run if not problems else None
        self.tally.record(problems, run.payload is not None and is_false_secure(run, mismatches(run.payload)))
        self.tally.record(check_problems(check, good),
                          is_false_secure(check, mismatches(run.payload) if run.payload else 0))
        return Unit(seconds, spec.rounds, [seconds])

    def traced_sessions(self) -> list[SessionSpec]:
        return [self.spec(k) for k in range(self.traced_units)]


def make_workload(name: str, ps, cli, seed: int, scale: Scale, work: Path) -> Workload:
    args = (ps, cli, seed, scale, work)
    if name == "simulate-honest":
        return Simulate(*args, tag="honest")
    if name == "simulate-tapped":
        return Simulate(*args, tag="tapped")
    if name == "audit":
        return Audit(*args)
    return ShortSessions(*args)


def measure(workload: Workload, seconds: float) -> tuple[list[Unit], float]:
    """Run repeats back to back while the next one is expected to fit in ``seconds``.

    Also returns the peak RSS in MiB once the first repeat is done.  Later
    repeats run the same kind of command; the allocator's fragmentation
    would make their high-water mark depend on how many fit in the window.
    """
    done: list[Unit] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done.append(workload.unit(len(done)))
        walls.append(time.perf_counter() - t0)
        if len(done) == 1:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return done, peak_rss_mib


def rounds_per_s(units: list[Unit]) -> float:
    """Rounds per second over all the repeats' time together.

    Not the median of per-repeat rates: the machine flips between two speeds
    about 1.5x apart for stretches of seconds, and a median of short
    repeats jumps between the two modes where the mean moves smoothly.
    """
    return sum(u.rounds for u in units) / sum(u.seconds for u in units)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90 by tens), or the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


# ---------------------------------------------------------------------------
# traced section


def traced_section(workload: Workload) -> tuple[Tracer, list[Unit], list[Unit]]:
    """A fixed number of repeats, each run untraced and then traced on the same inputs.

    Adjacent pairs see the same machine speed, so their ratio gives the
    tracing overhead even when the machine drifts between runs.
    """
    tracer = Tracer()
    reference, traced = [], []
    for k in range(workload.traced_units):
        reference.append(workload.unit(k))
        with tracer:
            traced.append(workload.unit(k))
    return tracer, reference, traced


def intercepts(ps, spec: SessionSpec) -> int:
    """Rounds the tap intercepts, from the tap-fraction draw at counter 3 of each stream."""
    fraction = float(spec.eve.split(",")[2])
    return sum(ps.Rng(spec.seed, i, 3).next_uniform()[0] < fraction for i in range(spec.rounds))


def trace_count_problems(ps, tracer: Tracer, layer: dict, sessions: list[SessionSpec]) -> list[str]:
    """Exact counts: 4 draws per round, plus per tapped round the fraction draw and one per intercept."""
    rounds = sum(s.rounds for s in sessions)
    taps = sum(s.rounds for s in sessions if not s.honest)
    hits = sum(intercepts(ps, s) for s in sessions if not s.honest)
    infer = tracer.totals().get("adversary.infer_label")
    want = {
        "qmath.rng_draws": 4 * rounds + taps + hits,
        "protocol.rounds": rounds,
        "adversary.tap_calls": taps,
        "adversary.infer_label calls": hits,
    }
    got = dict(layer, **{"adversary.infer_label calls": infer.count if infer else 0})
    return [f"trace: {k} = {got[k]}, expected {v}" for k, v in want.items() if got[k] != v]


# ---------------------------------------------------------------------------
# one benchmark run


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(ps, name: str, seed: int, seconds: float, trace: bool, scale: Scale) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pathspin").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "source_sha256": src.hexdigest(),
        "pathspin": ps.__version__, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "rounds": {"simulate": scale.rounds, "short": scale.short_rounds,
                   "traced_repeats": scale.traced_repeats, "traced_pairs": scale.traced_pairs},
    }


def setup_seconds(probes: int) -> float:
    """Median wall time of fresh processes that import pathspin and warm it up."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "warmup.py")], cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_workload(ps, cli, name: str, seed: int, seconds: float, trace: bool, scale: Scale) -> dict:
    """Prepare, measure and check one workload; return its metrics and verdict figures."""
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = None if trace else setup_seconds(scale.setup_probes)
        workload = make_workload(name, ps, cli, seed, scale, work)
        workload.prepare()
        figures: dict[str, float] = {}
        if trace:
            before = Tracer.originals()
            tracer, units, traced = traced_section(workload)
            if Tracer.originals() != before:
                workload.tally.problems.append("trace: a wrapped function was not restored")
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_ratio"] = rounds_per_s(units) / rounds_per_s(traced) - 1.0
            workload.tally.problems += trace_count_problems(
                ps, tracer, metrics, workload.traced_sessions())
            tracer.write(OUT / f"trace-{name}-seed{seed}.json")
        else:
            units, peak_rss_mib = measure(workload, seconds)
            commands = [s for u in units for s in u.command_seconds]
            metrics = {
                "rounds_per_s": rounds_per_s(units),
                "transcript_bytes_per_round": workload.bytes_per_round(),
                "peak_rss_mib": peak_rss_mib,
                "setup_s": setup_s,
            }
            figures = {"command_s_p50": statistics.median(commands),
                       "command_s_p90": quantile(commands, 90), "commands": len(commands)}
        workload.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = workload.tally
    figures["failed_ops_ratio"] = tally.failed / tally.attempted
    figures["false_secure_ratio"] = metrics["security.false_secure_ratio"] = (
        tally.false_secure / tally.attempted)
    return {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "figures": figures,
        "repeats": len(units),
        "problems": tally.problems,
    }


def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def report(result: dict, trace: bool) -> dict:
    """The last output line: every metric of the mode, by name, with its unit."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in metric_specs(trace)},
    }


def run_all(seed: int, seconds: float) -> int:
    """Each workload in a fresh process; print every end-to-end metric in one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        details = next(json.loads(l[8:]) for l in lines if l.startswith("details "))
        results[name] = (json.loads(lines[-1]), details["figures"])
    rows = [(m["name"], m["unit"], [r["metrics"][m["name"]]["value"] for r, _ in results.values()])
            for m in metric_specs(False)]
    rows += [(k, unit, [f[k] for _, f in results.values()]) for k, unit in FIGURE_UNITS.items()]
    print(f"{'metric':28s} {'unit':6s}" + "".join(f"{n:>17s}" for n in results))
    for name, unit, values in rows:
        print(f"{name:28s} {unit:6s}" + "".join(f"{v:17.6g}" for v in values))
    correct = all(r["correct"] for r, _ in results.values())
    print(f"correct: {correct}  (seed {seed}, {seconds} s per workload)")
    return 0 if correct else 1


def run_smoke(ps, cli) -> int:
    """Every workload at tiny sizes, untraced and traced, in this process."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(ps, cli, name, 1, 0.2, trace, SMOKE)
            ok &= result["correct"]
            print(f"{name:16s} trace={int(trace)} correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"false_secure_ratio={result['figures']['false_secure_ratio']}"
                  + "".join(f"\n  {p}" for p in result["problems"]))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1, the pinned one)")
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both modes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    ps = warmup.import_pathspin()
    cli = importlib.import_module("pathspin.cli")
    warmup.warm_up(ps)
    if args.smoke:
        return run_smoke(ps, cli)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    trace = bool(args.trace)
    result = run_workload(ps, cli, args.workload, args.seed, args.seconds, trace, FULL)
    out = report(result, trace)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['repeats']} timed repeats")
    for name, m in out["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for name, value in result["figures"].items():
        print(f"  {name:28s} {value:.6g} {FIGURE_UNITS[name]}  (not gated)")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    details = {k: result[k] for k in ("figures", "repeats", "problems")}
    details["provenance"] = provenance(ps, args.workload, args.seed, args.seconds, trace, FULL)
    print("details " + json.dumps(details))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
