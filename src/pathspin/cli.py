"""Command-line interface: run sessions, print tables, audit transcripts.

Commands
--------
run         simulate a session, write the transcript, report security
table       emit the closed-form family table (p, M, eta1, eta2) as CSV
sift-table  print the 16 (state, phi, basis) rows with supports and verdicts
check       audit a transcript file: the same summary as run, from the file

Exit codes: 0 success (and a secure verdict), 1 operational error
(a malformed command line included), 2 insecure verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cache, partial
from itertools import product
from pathlib import Path
from typing import NoReturn

from .adversary import InterceptResend, qber
from .errors import (ConfigError, InsufficientDataError, InvalidDistributionError, ParseError,
                     PathSpinError, is_json_int, json_choice, read_json)
from .optics import OUTCOMES, SpinBasis, StateLabel, outcome_support
from .protocol import (
    AlicePolicy,
    BasisMode,
    BobPolicy,
    PhaseChoice,
    Transcript,
    load_transcript,
    run_session,
    save_transcript,
    sift,
)
from .security import (
    DEFAULT_MIN_ABORTS,
    AbortEnsemble,
    Frame,
    closed_form_family,
    correlation_matrix,  # this, horodecki_m and ensemble_from_aborts are not called here;
    horodecki_m,  # perfbench/tracer.py wraps all three by this module's name
    ensemble_from_aborts,
    eta_rates,
    require_aborts,
    security_decision,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INSECURE = 2

#: Reference rows for the closed-form family, used by ``table --verify`` (tolerance 0.01).
REFERENCE_TABLE = (
    (0.67, 1.01, 0.39, 0.11),
    (0.70, 1.08, 0.40, 0.10),
    (0.75, 1.20, 0.41, 0.08),
    (0.80, 1.34, 0.43, 0.06),
    (0.85, 1.49, 0.45, 0.05),
    (0.90, 1.64, 0.46, 0.03),
    (0.95, 1.81, 0.48, 0.01),
    (1.00, 2.00, 0.50, 0.00),
)


#: The frames every summary reports, the verdict's first; isospectral, as the gap line shows.
_FRAMES = (Frame.WEIGHTS, Frame.AB_INITIO)


@dataclass(frozen=True)
class SessionConfig:
    """Fully resolved run configuration (defaults, file, then flags)."""

    rounds: int = 10_000
    seed: int = 0
    alice_weights: tuple[float, float, float, float] = AlicePolicy.uniform().weights
    basis_mode: BasisMode = BasisMode.INDEPENDENT_UNIFORM
    eve: InterceptResend | None = None
    min_aborts: int = DEFAULT_MIN_ABORTS
    out: str = "session.qkdlog"
    jobs: int = 1


def _flag_number(text: str, key: str) -> float:
    """The float ``text`` spells, else a ConfigError naming ``key`` and the text."""
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None


def parse_weights(value: str | list) -> tuple[float, float, float, float]:
    """The weights of a list of four numbers, read by ``AlicePolicy.from_config``.

    A string is shorthand for such a list: 'uniform', 'family:P' or four
    comma-separated weights."""
    if isinstance(value, str):
        value = value.strip()
        if value == "uniform":
            value = list(AlicePolicy.uniform().weights)
        elif value.startswith("family:"):
            p = _flag_number(value.split(":", 1)[1], "alice_weights")
            try:
                value = list(AlicePolicy.family(p).weights)
            except InvalidDistributionError as exc:
                raise ConfigError(f"alice_weights: {exc}") from None
        else:
            value = [_flag_number(x, "alice_weights") for x in value.split(",")]
    return AlicePolicy.from_config(value).weights


def parse_eve(value: str | dict | None) -> InterceptResend | None:
    """Accept None, 'none', 'PHI,BASIS[,FRACTION]' or a config-file mapping.

    A string is shorthand for the mapping ``InterceptResend.from_config``
    reads, so ``--eve`` takes exactly the values a config file does."""
    if isinstance(value, str):
        parts = [part.strip() for part in value.split(",")]
        if parts in ([""], ["none"]):
            return None
        if len(parts) not in (2, 3):
            raise ConfigError(f"adversary must be 'PHI,BASIS[,FRACTION]', got {value!r}")
        value = {"type": "intercept_resend", "phi": parts[0], "basis": parts[1]}
        if len(parts) == 3:
            value["fraction"] = _flag_number(parts[2], "intercept_resend fraction")
    return None if value is None else InterceptResend.from_config(value)


def _integer(value: object, key: str, least: int | None = None) -> int:
    """The value of ``key``: a JSON integer (a flag's is one), at least ``least`` if given."""
    if not is_json_int(value):
        raise ConfigError(f"{key} must be an integer, got {json.dumps(value)}")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return value


def _check_out(path: object) -> str:
    if not isinstance(path, str):
        raise ConfigError(f"out must be a string, got {json.dumps(path)}")
    return path


@contextmanager
def _writing(path: str):
    """An ``OSError`` in the block becomes a ConfigError naming ``out``, ``path`` and the cause."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"out: cannot write {path!r} ({exc.strerror})") from None


#: How a config-file value or a flag value becomes each SessionConfig field.
_PARSERS = {
    "rounds": partial(_integer, key="rounds", least=1),
    "seed": partial(_integer, key="seed"),
    "alice_weights": parse_weights,
    "basis_mode": lambda mode: json_choice(mode, BasisMode, "basis_mode"),
    "eve": parse_eve,
    "min_aborts": partial(_integer, key="min_aborts", least=0),
    "out": _check_out,
    "jobs": partial(_integer, key="jobs", least=1),
}
_CONFIG_KEYS = tuple(f.name for f in fields(SessionConfig))


def _apply(cfg: SessionConfig, values: dict) -> SessionConfig:
    return replace(cfg, **{key: _PARSERS[key](value) for key, value in values.items()})


def load_config(path: str) -> SessionConfig:
    """Read a JSON config file and validate it against the known keys."""
    try:
        raw = read_json(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not UTF-8 text "
                          f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None
    except ParseError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    unknown = set(raw).difference(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    return _apply(SessionConfig(), raw)


def _merge_flags(cfg: SessionConfig, args: argparse.Namespace,
                 keys: tuple[str, ...] = _CONFIG_KEYS) -> SessionConfig:
    """``cfg`` with each flag of ``keys`` that was given; None means not given."""
    flags = {key: getattr(args, key) for key in keys}
    return _apply(cfg, {key: value for key, value in flags.items() if value is not None})


def _summarize(transcript: Transcript, path: str, min_aborts: int) -> tuple[int, list[str], dict]:
    """Exit code, text lines and JSON payload of the summary of ``transcript``.

    Every figure is read from the kind counts the transcript took when it was built; this
    makes no pass over its rounds.  Each frame's figures are ``security_decision``'s;
    ``require_aborts`` decides NO VERDICT, and the verdict is the weights frame's.
    """
    abort_counts = transcript.abort_counts()
    ensemble = AbortEnsemble(tuple(abort_counts.values()))
    n, aborted = len(transcript.kinds), ensemble.total
    kept, keep_fraction = n - aborted, transcript.keep_fraction()
    out = [f"rounds={n} kept={kept} aborted={aborted} keep_fraction={keep_fraction:.4f}"]
    payload = {"rounds": n, "seed": transcript.seed, "kept": kept,
               "aborted": aborted, "keep_fraction": keep_fraction, "transcript": str(path),
               "decode_failures": transcript.decode_failures()}
    try:
        est = qber(transcript)
        out.append(
            f"qber={est.rate:.6f} (mismatches={est.mismatches}/{est.kept}, "
            f"3sigma={est.three_sigma:.6f})"
        )
        payload["qber"] = {"rate": est.rate, "mismatches": est.mismatches,
                           "kept": est.kept, "three_sigma": est.three_sigma}
    except InsufficientDataError:
        out.append("qber=n/a (no kept rounds)")
        payload["qber"] = None
    payload["abort_counts"] = counts = {label.value: count for label, count in abort_counts.items()}
    out.append("declared aborts: " + " ".join(f"{k}={n}" for k, n in counts.items()))
    # an empty ensemble has no correlation matrix; require_aborts reports it
    reports = [security_decision(ensemble, fr, min_count=1)
               for fr in _FRAMES] if ensemble.total else []
    for r in reports:
        out.append(
            f"frame={r.frame.value:13s} M={r.m_value:.6f} lambda={r.lam:.6f} mu={r.mu:.6f} "
            f"eta1={r.eta1:.4f} eta2={r.eta2:.4f}"
        )
    payload["reports"] = [{"frame": r.frame.value, "lambda": r.lam, "mu": r.mu,
                           "m": r.m_value, "eta1": r.eta1, "eta2": r.eta2} for r in reports]
    if reports:
        gap = abs(reports[0].m_value - reports[1].m_value)
        out.append(f"frame gap |dM|={gap:.3e}" + ("  (divergent)" if gap > 1e-6 else ""))
        payload["frame_gap"] = gap
    try:
        require_aborts(ensemble, min_aborts)
    except InsufficientDataError as exc:
        out.append(f"verdict: NO VERDICT ({exc})")
        payload["verdict"] = "insufficient_data"
        return EXIT_ERROR, out, payload
    m, secure = reports[0].m_value, reports[0].secure
    payload["verdict"] = "secure" if secure else "insecure"
    if secure:
        out.append(f"verdict: SECURE (M = {m:.6f} > 1)")
        return EXIT_OK, out, payload
    out.append(f"verdict: INSECURE (M = {m:.6f} <= 1)")
    return EXIT_INSECURE, out, payload


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else SessionConfig()
    cfg = _merge_flags(cfg, args)
    with _writing(cfg.out):  # refuse it before simulating; appending truncates nothing
        open(cfg.out, "ab").close()
    transcript = run_session(
        n_rounds=cfg.rounds,
        alice=AlicePolicy(cfg.alice_weights),
        bob=BobPolicy(cfg.basis_mode),
        eve=cfg.eve,
        seed=cfg.seed,
    )
    with _writing(cfg.out):
        save_transcript(transcript, cfg.out)
    code, out, payload = _summarize(transcript, cfg.out, cfg.min_aborts)
    out.append(f"transcript written to {cfg.out}")
    _emit(args, out, payload)
    return code


def cmd_check(args: argparse.Namespace) -> int:
    cfg = _merge_flags(SessionConfig(), args, ("min_aborts",))
    transcript = load_transcript(args.transcript)
    code, out, payload = _summarize(transcript, args.transcript, cfg.min_aborts)
    out.append(f"transcript read from {args.transcript}")
    _emit(args, out, payload)
    return code


def cmd_table(args: argparse.Namespace) -> int:
    rows = [(p, closed_form_family(p)[2], *eta_rates(AlicePolicy.family(p).weights))
            for p, *_ in REFERENCE_TABLE]
    lines = ["p,m,eta1,eta2"] + [f"{p:.2f},{m:.6f},{e1:.6f},{e2:.6f}" for p, m, e1, e2 in rows]
    text = "\n".join(lines)
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    if args.verify:
        for (p, m, e1, e2), (p_ref, m_ref, e1_ref, e2_ref) in zip(rows, REFERENCE_TABLE):
            for got, ref, name in ((m, m_ref, "M"), (e1, e1_ref, "eta1"), (e2, e2_ref, "eta2")):
                if abs(got - ref) > 0.01:
                    print(f"verify failed at p={p}: {name}={got:.4f} vs {ref}", file=sys.stderr)
                    return EXIT_ERROR
        print(f"verified {len(rows)} rows against the reference table (tolerance 0.01)")
    return EXIT_OK


def cmd_sift_table(args: argparse.Namespace) -> int:
    lines = [f"{'state':9s} {'phi':4s} {'basis':5s} {'verdict':7s} outcome support"]
    payload = []
    for label, phi, basis in product(StateLabel, PhaseChoice, SpinBasis):
        support = sorted(outcome_support(label, phi.radians, basis), key=OUTCOMES.index)
        verdict = sift(label.group, phi, basis).value
        names = " ".join(f"({o.port.value},{o.spin.value})" for o in support)
        lines.append(f"{label.value:9s} {phi.value:4s} {basis.value:5s} {verdict:7s} {names}")
        payload.append({"state": label.value, "phi": phi.value, "basis": basis.value,
                        "verdict": verdict,
                        "support": [[o.port.value, o.spin.value] for o in support]})
    _emit(args, lines, payload)
    return EXIT_OK


def _emit(args: argparse.Namespace, out: list[str], payload: dict | list) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(out))


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that rejects a command line with ``EXIT_ERROR``.

    argparse exits 2 on a usage error, and 2 is ``EXIT_INSECURE`` here.
    Subparsers are built from the same class.
    """

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pathspin",
        description="Path-spin single-particle entanglement QKD simulator and security checker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a session and report security")
    p_run.add_argument("--config", help="JSON config file; flags override it")
    p_run.add_argument("--rounds", type=int, help="number of rounds")
    p_run.add_argument("--seed", type=int, help="session seed")
    p_run.add_argument("--alice-weights", help="'uniform', 'family:P' or w1,w2,w3,w4")
    p_run.add_argument("--basis-mode", choices=[m.value for m in BasisMode],
                       help="receiver basis strategy")
    p_run.add_argument("--eve", help="'none' or 'PHI,BASIS[,FRACTION]' (e.g. '0,y' or 'pi/2,z,0.5')")
    p_run.add_argument("--min-aborts", type=int, help="minimum declared aborts for a verdict")
    p_run.add_argument("--out", help="transcript output path (.qkdlog)")
    p_run.add_argument("--jobs", type=int,
                       help="must be >= 1; selects no code path (rounds run serially)")
    p_run.add_argument("--json", action="store_true", help="machine-readable summary")
    p_run.set_defaults(func=cmd_run)

    p_table = sub.add_parser("table", help="closed-form family table as CSV")
    p_table.add_argument("--out", help="write CSV here instead of stdout")
    p_table.add_argument("--verify", action="store_true",
                         help="assert the reference values to 0.01")
    p_table.set_defaults(func=cmd_table)

    p_sift = sub.add_parser("sift-table", help="print the 16 setting rows with supports")
    p_sift.add_argument("--json", action="store_true", help="machine-readable rows")
    p_sift.set_defaults(func=cmd_sift_table)

    p_check = sub.add_parser("check", help="recompute the verdict from a transcript")
    p_check.add_argument("transcript", help="path to a .qkdlog file")
    p_check.add_argument("--min-aborts", type=int, help="minimum declared aborts for a verdict")
    p_check.add_argument("--json", action="store_true", help="machine-readable summary")
    p_check.set_defaults(func=cmd_check)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call (``build_parser`` builds a fresh one)."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: transcript parse failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (PathSpinError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
