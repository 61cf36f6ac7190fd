"""Command-line interface: run sessions, print tables, audit transcripts.

Commands
--------
run         simulate a session, write the transcript, report security
table       emit the closed-form family table (p, M, eta1, eta2) as CSV
sift-table  print the 16 (state, phi, basis) rows with supports and verdicts
check       recompute the security verdict from a transcript file

Exit codes: 0 success (and a secure verdict), 1 operational error,
2 insecure verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .adversary import InterceptResend, qber
from .errors import InsufficientDataError, ParseError, PathSpinError
from .optics import SpinBasis, StateLabel, outcome_support
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
    Verdict,
)
from .security import (
    DEFAULT_MIN_ABORTS,
    Frame,
    closed_form_family,
    correlation_matrix,
    ensemble_from_aborts,
    eta_rates,
    horodecki_m,
    is_violation,
    require_aborts,
    security_decision,  # not called here; perfbench/tracer.py wraps it by this module's name
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


@dataclass(frozen=True)
class SessionConfig:
    """Fully resolved run configuration (defaults, file, then flags)."""

    rounds: int = 10_000
    seed: int = 0
    alice_weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    basis_mode: BasisMode = BasisMode.INDEPENDENT_UNIFORM
    eve: InterceptResend | None = None
    frame: str = "both"
    min_aborts: int = DEFAULT_MIN_ABORTS
    out: str = "session.qkdlog"
    jobs: int = 1


def parse_weights(value: str | list) -> tuple[float, float, float, float]:
    """Accept 'uniform', 'family:P', four comma-separated weights or a list of four numbers."""
    if isinstance(value, (list, tuple)):
        if len(value) != 4:
            raise ValueError(f"need 4 weights, got {len(value)}")
        if not all(type(x) in (int, float) for x in value):
            raise ValueError(f"weights must be numbers, got {json.dumps(value)}")
        try:
            return tuple(float(x) for x in value)
        except OverflowError:
            raise ValueError("alice_weights has an integer too large for a float") from None
    if not isinstance(value, str):
        raise ValueError(f"weights must be a string or a list, got {json.dumps(value)}")
    value = value.strip()
    if value == "uniform":
        return (0.25, 0.25, 0.25, 0.25)
    if value.startswith("family:"):
        return AlicePolicy.family(float(value.split(":", 1)[1])).weights
    parts = value.split(",")
    if len(parts) != 4:
        raise ValueError(f"need 4 comma-separated weights, got {value!r}")
    return tuple(float(x) for x in parts)


def _parse_phase(token: str) -> PhaseChoice:
    token = token.strip().lower()
    if token in ("0", "zero"):
        return PhaseChoice.PHI_0
    if token in ("pi/2", "pi2", "half"):
        return PhaseChoice.PHI_HALF_PI
    raise ValueError(f"phase must be '0' or 'pi/2', got {token!r}")


def parse_eve(value: str | dict | None) -> InterceptResend | None:
    """Accept 'none', 'PHI,BASIS[,FRACTION]' or a config-file mapping."""
    if value is None:
        return None
    if not isinstance(value, str):
        return InterceptResend.from_config(value)
    value = value.strip().lower()
    if value in ("", "none"):
        return None
    parts = value.split(",")
    if len(parts) not in (2, 3):
        raise ValueError(f"adversary must be 'PHI,BASIS[,FRACTION]', got {value!r}")
    return InterceptResend(
        phi=_parse_phase(parts[0]),
        basis=SpinBasis(parts[1].strip()),
        fraction=float(parts[2]) if len(parts) == 3 else 1.0,
    )


def _check_frame(name: str) -> str:
    if name not in ("abinitio", "weights", "both"):
        raise ValueError(f"frame must be abinitio, weights or both, got {name!r}")
    return name


#: How a config-file value or a flag value becomes each SessionConfig field.
#: A field parsed by ``int`` or ``str`` takes only a value of that JSON type.
_PARSERS = {
    "rounds": int,
    "seed": int,
    "alice_weights": parse_weights,
    "basis_mode": BasisMode,
    "eve": parse_eve,
    "frame": _check_frame,
    "min_aborts": int,
    "out": str,
    "jobs": int,
}
_TYPE_NAMES = {int: "an integer", str: "a string"}
_CONFIG_KEYS = tuple(f.name for f in fields(SessionConfig))


def _apply(cfg: SessionConfig, values: dict) -> SessionConfig:
    for key, value in values.items():
        parse = _PARSERS[key]
        # a bool is an int to Python, and int() would truncate a float
        if parse in _TYPE_NAMES and type(value) is not parse:
            raise ValueError(f"{key} must be {_TYPE_NAMES[parse]}, got {json.dumps(value)}")
    return replace(cfg, **{key: _PARSERS[key](value) for key, value in values.items()})


def load_config(path: str) -> SessionConfig:
    """Read a JSON config file and validate it against the known keys."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc.msg}, line {exc.lineno})") from exc
        except RecursionError:
            raise ValueError(f"{path}: invalid JSON (nested too deeply)") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(raw).difference(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return _apply(SessionConfig(), raw)


def _merge_flags(cfg: SessionConfig, args: argparse.Namespace) -> SessionConfig:
    flags = {key: getattr(args, key) for key in _CONFIG_KEYS}
    return _apply(cfg, {key: value for key, value in flags.items() if value is not None})


def _frames_for(name: str) -> list[Frame]:
    if name == "both":
        return [Frame.WEIGHTS, Frame.AB_INITIO]
    return [Frame(name)]


def _report_security(transcript: Transcript, frame_name: str, min_aborts: int,
                     out: list[str], payload: dict) -> int:
    """Append the security summary to ``out``/``payload``; return exit code.

    The verdict is M of the first frame, as ``security_decision`` gives
    it, read from the row already computed for that frame.
    """
    ensemble = ensemble_from_aborts(transcript.declarations)
    frames = _frames_for(frame_name)
    payload["reports"] = []
    m_values = []
    # an empty ensemble has no correlation matrix; require_aborts reports it
    if ensemble.total:
        eta1, eta2 = eta_rates(ensemble)
        for fr in frames:
            lam, mu, m = horodecki_m(correlation_matrix(ensemble, fr))
            m_values.append(m)
            out.append(
                f"frame={fr.value:13s} M={m:.6f} lambda={lam:.6f} mu={mu:.6f} "
                f"eta1={eta1:.4f} eta2={eta2:.4f}"
            )
            payload["reports"].append(
                {"frame": fr.value, "lambda": lam, "mu": mu, "m": m, "eta1": eta1, "eta2": eta2}
            )
    if len(m_values) == 2:
        gap = abs(m_values[0] - m_values[1])
        out.append(f"frame gap |dM|={gap:.3e}" + ("  (divergent)" if gap > 1e-6 else ""))
        payload["frame_gap"] = gap
    try:
        require_aborts(ensemble, min_aborts)
    except InsufficientDataError as exc:
        out.append(f"verdict: NO VERDICT ({exc})")
        payload["verdict"] = "insufficient_data"
        return EXIT_ERROR
    m = m_values[0]
    secure = is_violation(m)
    payload["verdict"] = "secure" if secure else "insecure"
    if secure:
        out.append(f"verdict: SECURE (M = {m:.6f} > 1)")
        return EXIT_OK
    out.append(f"verdict: INSECURE (M = {m:.6f} <= 1)")
    return EXIT_INSECURE


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else SessionConfig()
    cfg = _merge_flags(cfg, args)
    transcript = run_session(
        n_rounds=cfg.rounds,
        alice=AlicePolicy(cfg.alice_weights),
        bob=BobPolicy(cfg.basis_mode),
        eve=cfg.eve,
        seed=cfg.seed,
        jobs=cfg.jobs,
    )
    save_transcript(transcript, cfg.out)

    kept = len(transcript.alice_key)
    out = [
        f"rounds={cfg.rounds} kept={kept} aborted={len(transcript.declarations)} "
        f"keep_fraction={transcript.keep_fraction():.4f}",
    ]
    payload: dict = {
        "rounds": cfg.rounds,
        "seed": cfg.seed,
        "kept": kept,
        "aborted": len(transcript.declarations),
        "keep_fraction": transcript.keep_fraction(),
        "transcript": str(cfg.out),
        "decode_failures": transcript.decode_failures(),
    }
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
    counts = transcript.abort_counts()
    out.append("declared aborts: " + " ".join(f"{l.value}={counts[l]}" for l in StateLabel))
    payload["abort_counts"] = {l.value: counts[l] for l in StateLabel}
    code = _report_security(transcript, cfg.frame, cfg.min_aborts, out, payload)
    out.append(f"transcript written to {cfg.out}")
    _emit(args, out, payload)
    return code


def cmd_check(args: argparse.Namespace) -> int:
    transcript = load_transcript(args.transcript)
    out = [
        f"transcript {args.transcript}: {len(transcript.rounds)} rounds, "
        f"{len(transcript.declarations)} declared aborts, "
        f"{len(transcript.alice_key)} key bits",
    ]
    payload: dict = {
        "transcript": args.transcript,
        "rounds": len(transcript.rounds),
        "aborted": len(transcript.declarations),
        "kept": len(transcript.alice_key),
    }
    frame = _check_frame(args.frame) if args.frame else "both"
    min_aborts = args.min_aborts if args.min_aborts is not None else DEFAULT_MIN_ABORTS
    code = _report_security(transcript, frame, min_aborts, out, payload)
    _emit(args, out, payload)
    return code


def cmd_table(args: argparse.Namespace) -> int:
    rows = []
    for p, *_ in REFERENCE_TABLE:
        _, _, m = closed_form_family(p)
        eta1, eta2 = eta_rates(AlicePolicy.family(p).weights)
        rows.append((p, m, eta1, eta2))
    lines = ["p,m,eta1,eta2"] + [f"{p:.2f},{m:.6f},{e1:.6f},{e2:.6f}" for p, m, e1, e2 in rows]
    text = "\n".join(lines)
    if args.out:
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
    for label in StateLabel:
        for phi in PhaseChoice:
            for basis in SpinBasis:
                support = sorted(
                    outcome_support(label, phi.radians, basis),
                    key=lambda o: o.index,
                )
                # verdict derived from the computed correlation structure,
                # cross-checked against the sifting rule
                derived = Verdict.KEEP if len(support) == 2 else Verdict.ABORT
                ruled = sift(label.group, phi, basis)
                if derived is not ruled:
                    print(
                        f"internal inconsistency at ({label.value}, {phi.value}, "
                        f"{basis.value}): rule says {ruled.value}, optics says {derived.value}",
                        file=sys.stderr,
                    )
                    return EXIT_ERROR
                names = " ".join(f"({o.port.value},{o.spin.value})" for o in support)
                lines.append(
                    f"{label.value:9s} {phi.value:4s} {basis.value:5s} {derived.value:7s} {names}"
                )
                payload.append(
                    {"state": label.value, "phi": phi.value, "basis": basis.value,
                     "verdict": derived.value,
                     "support": [[o.port.value, o.spin.value] for o in support]}
                )
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return EXIT_OK


def _emit(args: argparse.Namespace, out: list[str], payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(out))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_run.add_argument("--frame", help="abinitio, weights or both")
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
    p_check.add_argument("--frame", help="abinitio, weights or both")
    p_check.add_argument("--min-aborts", type=int, help="minimum declared aborts for a verdict")
    p_check.add_argument("--json", action="store_true", help="machine-readable summary")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
