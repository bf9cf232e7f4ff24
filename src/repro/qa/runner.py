"""The fuzz loop: generate -> check oracles -> shrink -> persist.

``run_fuzz`` drives ``iters`` seeded cases through the selected oracles.
Every violating case is (optionally) minimized with
:mod:`repro.qa.shrink` and written to ``qa_failures/seed<N>.json``
together with its violations and a replay command.  The returned
:class:`FuzzReport` counts the cases run and lists every violation, and
each violation is also one ``oracle_violation`` journal event.

``replay_case`` re-runs a persisted failure file, which is how a written
repro is debugged (and how CI validates that a nightly failure is still
live): ``repro fuzz --replay qa_failures/seed123.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..obs import OracleViolation, emit
from .generator import Case, GenConfig, generate_case
from .oracles import ORACLES, OracleConfig, Violation, run_oracles
from .shrink import shrink_case

Progress = Callable[[int, int, int], None]   # (iteration, total, failures)


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    seed: int
    iterations: int
    cases_run: int = 0
    oracle_names: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    failure_files: list[str] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "cases_run": self.cases_run,
            "oracles": list(self.oracle_names),
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "failure_files": list(self.failure_files),
            "stopped_early": self.stopped_early,
        }


def run_fuzz(
    seed: int,
    iters: int,
    oracles: Optional[list[str]] = None,
    shrink: bool = False,
    out_dir: str = "qa_failures",
    gen_config: Optional[GenConfig] = None,
    oracle_config: Optional[OracleConfig] = None,
    max_failures: int = 5,
    progress: Optional[Progress] = None,
) -> FuzzReport:
    """Fuzz ``iters`` cases seeded ``seed``, ``seed+1``, ...

    Stops early once ``max_failures`` distinct cases have violated an
    oracle -- a systematically broken invariant fails every case, and a
    handful of shrunken repros beats three hundred identical ones.
    """
    names = oracles or list(ORACLES)
    for name in names:
        if name not in ORACLES:
            raise ValueError(
                f"unknown oracle {name!r}; choose from {sorted(ORACLES)}"
            )
    config = oracle_config or OracleConfig()
    report = FuzzReport(seed=seed, iterations=iters, oracle_names=names)
    failing_cases = 0
    for i in range(iters):
        case_seed = seed + i
        case = generate_case(case_seed, gen_config)
        violations = run_oracles(case, names, config)
        report.cases_run += 1
        if violations:
            failing_cases += 1
            failed_oracles = sorted({v.oracle for v in violations})
            path = _handle_failure(
                case, violations, failed_oracles, shrink, out_dir, config
            )
            if path is not None:
                report.failure_files.append(path)
            for violation in violations:
                emit(OracleViolation(
                    oracle=violation.oracle,
                    seed=violation.seed,
                    statement=violation.statement,
                    detail=violation.detail,
                    shrunk=shrink,
                    case_file=path or "",
                ))
            report.violations.extend(violations)
        if progress is not None:
            progress(i + 1, iters, failing_cases)
        if failing_cases >= max_failures:
            report.stopped_early = True
            break
    return report


def _handle_failure(
    case: Case,
    violations: list[Violation],
    failed_oracles: list[str],
    shrink: bool,
    out_dir: str,
    config: OracleConfig,
) -> Optional[str]:
    shrunk = case
    if shrink:
        def still_failing(candidate: Case) -> bool:
            return bool(run_oracles(candidate, failed_oracles, config))

        shrunk = shrink_case(case, still_failing)
        violations = run_oracles(shrunk, failed_oracles, config) or violations
    return write_failure(shrunk, violations, out_dir, shrunk=shrink)


def write_failure(
    case: Case,
    violations: list[Violation],
    out_dir: str,
    shrunk: bool = False,
) -> Optional[str]:
    """Serialize a failing case (plus violations) for later replay."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"seed{case.seed}.json")
        payload = {
            "case": case.to_dict(),
            "violations": [v.to_dict() for v in violations],
            "shrunk": shrunk,
            "replay": f"python -m repro.cli fuzz --replay {path}",
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
        return path
    except OSError:
        return None


def replay_case(
    path: str,
    oracles: Optional[list[str]] = None,
    oracle_config: Optional[OracleConfig] = None,
) -> FuzzReport:
    """Re-run the oracles against a persisted ``qa_failures/`` file."""
    with open(path) as fh:
        payload = json.load(fh)
    case = Case.from_dict(payload["case"])
    names = oracles or list(ORACLES)
    report = FuzzReport(
        seed=case.seed, iterations=1, cases_run=1, oracle_names=names
    )
    report.violations = run_oracles(case, names, oracle_config or OracleConfig())
    return report
