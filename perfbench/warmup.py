"""Set-up of a benchmark process: import pathspin and fill its first-call caches.

Run as a script it does exactly that and exits; the benchmark times the
whole child process, from spawn to exit, and reports the median as
``setup_s``.  It imports pathspin from ``src/`` of the checkout the
benchmark sits in, never from an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_pathspin():
    """Import the checkout's pathspin, or exit non-zero if it is missing."""
    package = SRC / "pathspin"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no pathspin package at {package}")
    sys.path.insert(0, str(SRC))
    import pathspin

    if Path(pathspin.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported pathspin from {pathspin.__file__}, expected {package}")
    return pathspin


def warm_up(ps) -> None:
    """Fill the optics/protocol lru_caches for every row a workload can reach.

    Covers all 16 (label, phase, basis) rows for the receiver and for every
    tap setting, then runs one short tapped session through the security
    analysis so numpy's lazily loaded linear-algebra paths are in place.
    """
    from pathspin.protocol import receiver_distribution

    for label in ps.StateLabel:
        for phi in ps.PhaseChoice:
            for basis in ps.SpinBasis:
                ps.outcome_support(label, phi.radians, basis)
                receiver_distribution(ps.prepare(label), phi.radians, basis)
    eve = ps.InterceptResend(ps.PhaseChoice.PHI_0, ps.SpinBasis.Y, 0.5)
    transcript = ps.run_session(64, ps.AlicePolicy.family(0.9), ps.BobPolicy(), eve=eve, seed=0)
    ensemble = ps.ensemble_from_aborts(transcript.declarations)
    for frame in ps.Frame:
        ps.horodecki_m(ps.correlation_matrix(ensemble, frame))
    ps.security_decision(ensemble, min_count=1)
    ps.qber(transcript)


if __name__ == "__main__":
    warm_up(import_pathspin())
