import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: two fixed, distinct hash seeds: a set of strings whose iteration order
#: reaches a stream or a file makes the two runs differ, and the same way on
#: every rerun, not at random
HASH_SEEDS = ("1", "2")


@dataclass(frozen=True)
class CliRun:
    """One ``python -m cvdag.cli`` process: its exit code, its streams, and
    the bytes of each file it left in its working directory ``cwd``, keyed by
    path relative to it. Runs compare equal when all but ``cwd`` are."""

    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]
    cwd: Path = field(compare=False)


@pytest.fixture
def cli_twice(tmp_path):
    """Run the CLI on ``argv`` in two fresh interpreters that differ only in
    PYTHONHASHSEED, each in a new directory under ``tmp_path``, and return
    both :class:`CliRun`. Give outputs as relative paths (``-o out``), so the
    lines naming them compare byte for byte."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), path] if path else [str(SRC)]))

    def run(*argv) -> tuple[CliRun, CliRun]:
        runs = []
        for seed in HASH_SEEDS:
            cwd = Path(tempfile.mkdtemp(dir=tmp_path))
            proc = subprocess.run([sys.executable, "-m", "cvdag.cli", *map(str, argv)],
                                  cwd=cwd, env={**env, "PYTHONHASHSEED": seed},
                                  capture_output=True, timeout=300)
            files = {f.relative_to(cwd).as_posix(): f.read_bytes()
                     for f in sorted(cwd.rglob("*")) if f.is_file()}
            runs.append(CliRun(proc.returncode, proc.stdout.decode(), proc.stderr.decode(),
                               files, cwd))
        return tuple(runs)

    return run
