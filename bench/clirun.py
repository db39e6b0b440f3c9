"""Running the ``tailcorr`` command line in fresh processes and reading
back what it wrote."""

from __future__ import annotations

import csv
import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import gate

#: A command that has not finished by then is killed and counted failed.
COMMAND_TIMEOUT_S = 150

REPRODUCE_SUITES = ("erfc-sqrt", "bounded-gauss")

#: The YAML config the ``simulate`` command reads: the README's BR example.
BR_YAML = """class: BR
dim: 1
variogram:
  type: fbm
  scale: 8.0
  alpha: 1.0
"""


def cli_env() -> dict:
    """The benchmark's own environment (thread pins included) with the
    checkout's ``src`` first on the import path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p)
    return env


@dataclass
class Command:
    returncode: int
    stderr: str


def run_cli(tracer, args: list[str], *, cwd: Path, metric: str | None = None
            ) -> Command:
    """``tailcorr <args>`` as ``python -m tailcorr.cli`` in a fresh process,
    timed in a ``cli`` span.  The process is always waited for."""
    with tracer.span("cli", args[0], metric=metric):
        proc = subprocess.Popen(
            [sys.executable, "-m", "tailcorr.cli", *args], cwd=cwd,
            env=cli_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        try:
            _, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            err += f"\nkilled after {COMMAND_TIMEOUT_S} s"
    return Command(proc.returncode, err)


def read_csv(path: Path) -> list[dict]:
    """Rows of a ``tailcorr`` CSV, skipping its ``#`` header lines."""
    with path.open(encoding="utf-8", newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class SuiteResult:
    """What one ``reproduce`` run wrote, judged."""

    suite: str
    returncode: int
    deterministic_failures: list[str] = field(default_factory=list)
    chi_rows: list[tuple[str, float, float, float]] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    @property
    def false_alarm(self) -> bool:
        """Nonzero exit that only the shipped chi_hat threshold raised,
        while the family-wise gate accepts the same rows."""
        return (self.returncode != 0 and not self.missing
                and not self.deterministic_failures
                and gate.judge_z(self.chi_rows).passed)

    @property
    def ok(self) -> bool:
        return self.returncode == 0 or self.false_alarm


def judge_suite(suite: str, out_dir: Path, returncode: int, label: str
                ) -> SuiteResult:
    """Read ``summary.csv`` and the ``chi_hat_*.csv`` tables of one run.

    Deterministic rows (those with a positive threshold) must pass as
    shipped; the chi_hat rows become gate rows ``(label, chi_hat, std_err,
    chi)`` for the family-wise z gate.
    """
    result = SuiteResult(suite, returncode)
    summary = out_dir / "summary.csv"
    if not summary.exists():
        result.missing.append(str(summary.name))
        return result
    for row in read_csv(summary):
        if float(row["threshold"]) > 0 and row["status"] != "pass":
            result.deterministic_failures.append(
                f"{row['check']} {row['max_deviation']} > {row['threshold']}")
        if row["check"].startswith("chi_hat_"):
            name = row["check"].removeprefix("chi_hat_")
            table = out_dir / f"chi_hat_{name}.csv"
            if not table.exists():
                result.missing.append(table.name)
                continue
            for lag_row in read_csv(table):
                result.chi_rows.append(
                    (f"{label}/{name}@{float(lag_row['lag']):g}",
                     float(lag_row["chi_hat"]), float(lag_row["std_err"]),
                     float(lag_row["chi"])))
    return result
