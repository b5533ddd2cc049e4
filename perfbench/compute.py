"""The three batch workloads: PODEM search, scan verification, grading.

Each workload builds its inputs in :meth:`setup` (timed as ``setup_s``),
runs one user operation per repetition in :meth:`operation` (timed as
``wall_s``), reduces a result to the figures a user reads in
:meth:`summarize`, and checks outputs against an oracle in
:meth:`check`, outside every timed region.

Why the seed does what it does: the ten-seed spread of ``wall_s`` must
stay inside its bound, so the seed varies inputs that keep the amount
of work steady.  ``grade-r5315`` keeps instance 0 of the r5315 profile
and draws the patterns from the seed: no-drop grading then costs the
same faults x patterns on every seed, while r5315 instances differ by
up to 30% in peak memory.  ``atpg-r432`` keeps instance 0 of the r432 profile and
seeds the ATPG run (random phase and fill): r432 instances differ by
up to 1.7x in PODEM effort, the seed of one instance by about 5%.
``scan-ralu`` has one circuit and seeds its core ATPG; it verifies
every fault, because a seeded fault sample moves the verification
cost by 20%.

``atpg-r432`` runs with a backtrack limit of 20, not 100: a run then
takes about 6.5 s on a 2-core machine instead of 15 s, so three
repetitions fit in one measurement and their median damps the machine's
run-to-run noise.  PODEM is still over 90% of it (fault dropping by
simulation most of the rest).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.atpg.api import generate_tests
from repro.atpg.random_gen import random_patterns
from repro.circuits.alu74181 import alu74181
from repro.circuits.iscas import iscas85_like
from repro.circuits.sequential import binary_counter, registered_alu74181
from repro.faultsim import create_simulator
from repro.scan.flow import full_scan_flow

Summary = Dict[str, Any]


def digest(*parts: Any) -> str:
    """A stable hash of JSON-able parts (faults are hashed by ``str``)."""
    text = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def detected_set(report: Any) -> List[str]:
    return sorted(str(fault) for fault in report.first_detection)


class AtpgWorkload:
    """``generate_tests`` with PODEM on the r432 profile, one process."""

    name = "atpg-r432"
    yardstick = "python"
    backtrack_limit = 20
    setup_repeats = 20  # 0.25-0.6 s a round on a 2-core VM

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.circuit: Any = None
        self.first: Any = None

    def setup(self) -> None:
        self.circuit = alu74181() if self.tiny else iscas85_like("r432", 0)
        # Collapse and compile once, as a user's session would have.
        create_simulator(self.circuit, "wide")

    def operation(self) -> Any:
        return generate_tests(
            self.circuit,
            method="podem",
            engine="wide",
            backtrack_limit=self.backtrack_limit,
            seed=self.seed,
            workers=1,
        )

    def summarize(self, result: Any) -> Summary:
        if self.first is None:
            self.first = result
        return {
            "fault_coverage": result.report.coverage,
            "test_patterns": len(result.patterns),
            "aborted_faults": len(result.aborted),
            "manifests": [result.manifest],
            "digest": digest(
                result.patterns,
                detected_set(result.report),
                sorted(map(str, result.redundant)),
                sorted(map(str, result.aborted)),
            ),
        }

    def check(self, summaries: List[Summary]) -> List[str]:
        """Same digest every repetition; parallel-pattern regrade agrees."""
        problems = []
        if len({s["digest"] for s in summaries}) != 1:
            problems.append("repetitions produced different tests")
        oracle = create_simulator(self.circuit, "parallel_pattern").run(
            self.first.patterns
        )
        if detected_set(oracle) != detected_set(self.first.report):
            problems.append("parallel-pattern regrade detects a different set")
        return problems


class ScanWorkload:
    """``full_scan_flow`` on the registered 74181, verified over 2 workers."""

    name = "scan-ralu"
    yardstick = "python"
    workers = 2
    setup_repeats = 1000  # 0.2-0.5 s a round on a 2-core VM

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.circuit: Any = None
        self.first: Any = None

    def setup(self) -> None:
        self.circuit = binary_counter(3) if self.tiny else registered_alu74181()

    def _flow(self, workers: int) -> Any:
        return full_scan_flow(
            self.circuit, engine="wide", workers=workers, seed=self.seed
        )

    def operation(self) -> Any:
        return self._flow(self.workers)

    def summarize(self, result: Any) -> Summary:
        if self.first is None:
            self.first = result
        return {
            "fault_coverage": result.scan_coverage.coverage if result.verified else 0.0,
            "test_patterns": len(result.core_tests.patterns),
            "aborted_faults": len(result.core_tests.aborted),
            "manifests": [result.manifest],
            "verified": result.verified,
            "digest": digest(
                result.schedule,
                detected_set(result.scan_coverage) if result.verified else None,
            ),
        }

    def check(self, summaries: List[Summary]) -> List[str]:
        """Every run verified; a ``workers=1`` pass gives the same result."""
        problems = []
        if not all(s["verified"] for s in summaries):
            problems.append("scan flow skipped sequential verification")
        if len({s["digest"] for s in summaries}) != 1:
            problems.append("repetitions produced different scan results")
        serial = self._flow(1)
        if digest(
            serial.schedule, detected_set(serial.scan_coverage)
        ) != summaries[0]["digest"]:
            problems.append("workers=1 scan flow disagrees with workers=2")
        return problems


class GradeWorkload:
    """No-drop wide fault grading of random patterns on the r5315 profile."""

    name = "grade-r5315"
    yardstick = "mixed"
    setup_repeats = 1  # 0.8-1.7 s a round on a 2-core VM

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.circuit: Any = None
        self.simulator: Any = None
        self.patterns: Optional[list] = None
        self.first: Any = None

    def setup(self) -> None:
        profile, count = ("r432", 128) if self.tiny else ("r5315", 4096)
        self.simulator = None  # let the previous set-up go first
        self.circuit = iscas85_like(profile, 0)
        self.simulator = create_simulator(self.circuit, "wide")
        self.patterns = random_patterns(self.circuit, count, seed=self.seed)
        # The union fault cones are built on first use and do not depend
        # on the patterns: build them here, not in the first repetition.
        self.simulator.run(self.patterns[:64], drop_detected=False)

    def operation(self) -> Any:
        return self.simulator.run(self.patterns, drop_detected=False)

    def summarize(self, result: Any) -> Summary:
        if self.first is None:
            self.first = result
        detections = result.first_detection
        return {
            "fault_coverage": result.coverage,
            # Test length a user would ship: patterns up to the last
            # first detection.
            "test_patterns": (max(detections.values()) + 1) if detections else 0,
            "aborted_faults": 0,
            "manifests": [],
            "evals": len(result.faults) * result.num_patterns,
            "digest": digest(
                sorted((str(f), i) for f, i in detections.items())
            ),
        }

    def check(self, summaries: List[Summary]) -> List[str]:
        """Same grading every repetition; parallel-pattern agrees exactly."""
        problems = []
        if len({s["digest"] for s in summaries}) != 1:
            problems.append("repetitions graded differently")
        oracle = create_simulator(self.circuit, "parallel_pattern").run(
            self.patterns
        )
        if oracle.first_detection != self.first.first_detection:
            problems.append("parallel-pattern first detections differ")
        return problems
