"""Span tracer that wraps pathspin's public functions from outside the package.

Each wrapper is installed at the name its callers look it up by (a module
global such as ``pathspin.protocol.run_round`` or a class attribute such as
``pathspin.qmath.Rng.sample``) and removed again when the tracer closes, so
the package itself is never edited.

A span has a name, a start, an end and a parent; spans opened during one
``cli.main`` call share a command id.  Per-command spans are kept whole.
Per-round spans (about a dozen per round) are folded into one node per
(command, parent, name) holding count, total and self time, so memory stays
bounded however many rounds run.  Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

#: (owner, attribute, span name, folded per round).  The owner is where the
#: caller looks the name up: cli imports its helpers by name, security calls
#: ``qmath.sym3_eigs`` through the module, and methods live on their class.
TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("pathspin.cli", "main", "cli.main", False),
    ("pathspin.qmath:Rng", "sample", "qmath.Rng.sample", True),
    ("pathspin.qmath:Rng", "next_uniform", "qmath.Rng.next_uniform", True),
    ("pathspin.qmath", "sym3_eigs", "qmath.sym3_eigs", False),
    ("pathspin.protocol", "outcome_support", "optics.outcome_support", True),
    ("pathspin.adversary", "outcome_support", "optics.outcome_support", True),
    ("pathspin.optics", "pipeline_distribution", "optics.pipeline_distribution", True),
    ("pathspin.cli", "run_session", "protocol.run_session", False),
    ("pathspin.protocol", "run_round", "protocol.run_round", True),
    ("pathspin.protocol", "decode_bit", "protocol.decode_bit", True),
    ("pathspin.cli", "save_transcript", "protocol.save_transcript", False),
    ("pathspin.cli", "load_transcript", "protocol.load_transcript", False),
    ("pathspin.adversary:InterceptResend", "tap", "adversary.tap", True),
    ("pathspin.adversary:InterceptResend", "infer_label", "adversary.infer_label", True),
    ("pathspin.cli", "qber", "adversary.qber", False),
    ("pathspin.cli", "ensemble_from_aborts", "security.ensemble_from_aborts", False),
    ("pathspin.cli", "correlation_matrix", "security.correlation_matrix", False),
    ("pathspin.security", "correlation_matrix", "security.correlation_matrix", False),
    ("pathspin.cli", "horodecki_m", "security.horodecki_m", False),
    ("pathspin.security", "horodecki_m", "security.horodecki_m", False),
    ("pathspin.cli", "eta_rates", "security.eta_rates", False),
    ("pathspin.security", "eta_rates", "security.eta_rates", False),
    ("pathspin.cli", "security_decision", "security.security_decision", False),
)

RNG_SPANS = frozenset({"qmath.Rng.sample", "qmath.Rng.next_uniform"})
SUPPORT_SPANS = frozenset({"optics.outcome_support", "optics.pipeline_distribution"})
DECISION_SPANS = frozenset({
    "security.correlation_matrix", "security.horodecki_m",
    "security.eta_rates", "security.security_decision",
})


def resolve(owner: str):
    """Import ``package.module`` or ``package.module:Class``."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@dataclass
class Totals:
    count: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Collects spans while installed; use as a context manager."""

    spans: list[dict] = field(default_factory=list)
    nodes: dict[tuple[int, int | None, str], list] = field(default_factory=dict)
    save_bytes: int = 0
    _stack: list[list] = field(default_factory=list)
    _installed: list[tuple[object, str, object]] = field(default_factory=list)
    _next_id: int = 0
    _command: int = 0

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner_name, attr, span, folded in TARGETS:
                owner = resolve(owner_name)
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(span, original, folded))
                self._installed.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @staticmethod
    def originals() -> dict[tuple[str, str], object]:
        """The objects currently bound at every target, for restore checks."""
        return {(o, a): vars(resolve(o))[a] for o, a, _, _ in TARGETS}

    def _wrap(self, name: str, fn, folded: bool):
        stack = self._stack
        clock = time.perf_counter
        is_main = name == "cli.main"
        is_save = name == "protocol.save_transcript"

        def open_span() -> list:
            if is_main:
                self._command += 1
            parent = stack[-1][0] if stack else None
            if folded:
                key = (self._command, parent, name)
                node = self.nodes.get(key)
                if node is None:
                    node = self.nodes[key] = [self._new_id(), 0, 0.0, 0.0]
                frame = [node[0], clock(), 0.0, node, parent]
            else:
                frame = [self._new_id(), clock(), 0.0, None, parent]
            stack.append(frame)
            return frame

        def close_span(frame: list) -> None:
            end = clock()
            stack.pop()
            span_id, start, child, node, parent = frame
            dur = end - start
            if stack:
                stack[-1][2] += dur
            if node is not None:
                node[1] += 1
                node[2] += dur
                node[3] += dur - child
            else:
                self.spans.append({
                    "id": span_id, "command": self._command, "name": name,
                    "parent": parent, "start": start, "end": end, "self_s": dur - child,
                })

        def wrapper(*args, **kwargs):
            frame = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(frame)
                if is_save and isinstance(args[1], (str, Path)):
                    self.save_bytes += os.path.getsize(args[1])

        return wrapper

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- results ------------------------------------------------------------

    def folded_nodes(self) -> list[dict]:
        return [
            {"id": node[0], "command": cmd, "name": name, "parent": parent,
             "count": node[1], "total_s": node[2], "self_s": node[3]}
            for (cmd, parent, name), node in self.nodes.items()
        ]

    def totals(self) -> dict[str, Totals]:
        """Count and self time per span name over the whole trace."""
        out: dict[str, Totals] = {}
        for s in self.spans:
            t = out.setdefault(s["name"], Totals())
            t.count += 1
            t.self_s += s["self_s"]
        for n in self.folded_nodes():
            t = out.setdefault(n["name"], Totals())
            t.count += n["count"]
            t.self_s += n["self_s"]
        return out

    def outermost_count(self, names: frozenset[str]) -> int:
        """Calls to the folded spans ``names`` whose parent is not itself in ``names``."""
        name_of = {s["id"]: s["name"] for s in self.spans}
        name_of.update((node[0], name) for (_, _, name), node in self.nodes.items())
        return sum(
            node[1] for (_, parent, name), node in self.nodes.items()
            if name in names and name_of.get(parent) not in names
        )

    def layer_metrics(self) -> dict[str, float]:
        t = self.totals()

        def count(*names: str) -> int:
            return sum(t[n].count for n in names if n in t)

        def self_s(*names: str) -> float:
            return sum((t[n].self_s for n in names if n in t), 0.0)

        taps = count("adversary.tap")
        return {
            "qmath.rng_draws": self.outermost_count(RNG_SPANS),
            "qmath.rng_s": self_s(*RNG_SPANS),
            "qmath.eig_calls": count("qmath.sym3_eigs"),
            "qmath.eig_s": self_s("qmath.sym3_eigs"),
            "optics.support_calls": self.outermost_count(SUPPORT_SPANS),
            "optics.support_s": self_s(*SUPPORT_SPANS),
            "protocol.rounds": count("protocol.run_round"),
            "protocol.round_self_s": self_s("protocol.run_round", "protocol.decode_bit"),
            "protocol.assemble_s": self_s("protocol.run_session"),
            "protocol.save_s": self_s("protocol.save_transcript"),
            "protocol.save_bytes": self.save_bytes,
            "protocol.load_s": self_s("protocol.load_transcript"),
            "adversary.tap_calls": taps,
            "adversary.intercept_ratio": count("adversary.infer_label") / taps if taps else 0.0,
            "adversary.tap_s": self_s("adversary.tap", "adversary.infer_label"),
            "adversary.qber_s": self_s("adversary.qber"),
            "security.ensemble_s": self_s("security.ensemble_from_aborts"),
            "security.corr_calls": count("security.correlation_matrix"),
            "security.horodecki_calls": count("security.horodecki_m"),
            "security.decision_s": self_s(*DECISION_SPANS),
            "cli.self_s": self_s("cli.main"),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "nodes": self.folded_nodes()}, fh)
