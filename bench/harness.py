"""Child processes, scratch space and operation accounting for the benchmark.

Every `memsift` invocation the benchmark times runs as one child process at
a time.  A child is waited for with ``waitid(..., WNOWAIT)`` first, so the
overrun timer can never signal a reaped (and possibly reused) pid, and then
reaped with ``wait4`` to read its peak resident memory.  A child that
overruns is killed and reaped the same way.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
# Temporary inputs live here, inside the checkout, and are removed on exit.
WORK_ROOT = REPO / ".bench_work"

MIB = float(1 << 20)


def memsift_argv(*args: str) -> list[str]:
    """Command line of the real `memsift` CLI, runnable without installing."""
    return [sys.executable, "-m", "memsift", *args]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


@dataclass(frozen=True)
class ChildResult:
    argv: tuple[str, ...]
    pid: int
    returncode: int
    wall_s: float
    peak_rss_mib: float
    timed_out: bool
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out

    def describe(self) -> str:
        what = "overran and was killed" if self.timed_out else f"exited {self.returncode}"
        tail = self.stderr.strip().splitlines()[-3:]
        return f"{' '.join(self.argv[2:])}: {what}" + (
            f" ({' | '.join(tail)})" if tail else ""
        )


def run_child(argv: Sequence[str], timeout: float, log_dir: Path) -> ChildResult:
    """Run one child to completion (or kill it at ``timeout`` seconds).

    Returns its exit code, wall time, and peak RSS as the kernel accounts it
    for that child alone.  Standard output is discarded; standard error goes
    to a file under ``log_dir`` so a failure can be reported.
    """
    err_path = log_dir / "child.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            env=child_env(),
        )
        lock = threading.Lock()
        exited = False
        killed = False

        def overrun() -> None:
            nonlocal killed
            with lock:
                if not exited:
                    killed = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, overrun)
        timer.start()
        try:
            # Wait without reaping: the pid stays ours until wait4 below.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                exited = True
        finally:
            timer.cancel()
            timer.join()
            if not exited:  # interrupted while waiting: never leave it behind
                with lock:
                    exited = True
                os.kill(proc.pid, signal.SIGKILL)
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        argv=tuple(argv),
        pid=proc.pid,
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mib=usage.ru_maxrss * 1024 / MIB,  # ru_maxrss is KiB on Linux
        timed_out=killed,
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


@contextmanager
def scratch_dir(prefix: str, root: Path | None = None) -> Iterator[Path]:
    """A fresh directory under ``root`` (default WORK_ROOT), removed with
    ``root`` (if then empty) however the block exits."""
    root = root if root is not None else WORK_ROOT
    root.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass  # another run still owns something there


@dataclass
class Ledger:
    """Operations attempted, failed, and any wrong outputs among them.

    An operation fails when it exits non-zero, overruns, or its output
    fails a check; the last kind also makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    wrong_output: int = 0

    def record(self, what: str, errors: Sequence[str] = (), *, ran: bool = True) -> bool:
        self.attempted += 1
        if ran and not errors:
            return True
        self.failed += 1
        if ran:
            self.wrong_output += 1
        print(f"bench: {what}: " + "; ".join(errors[:5]), file=sys.stderr)
        return False

    def record_child(self, result: ChildResult, check=None) -> bool:
        """Count one child; ``check`` (called only on a clean exit) returns
        the list of problems with its output."""
        if not result.ok:
            return self.record(result.describe(), ["did not complete"], ran=False)
        return self.record(" ".join(result.argv[2:4]), check() if check else ())

    @property
    def correct(self) -> bool:
        return self.wrong_output == 0


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no successful samples to report")
    return float(statistics.median(values))


def run_rounds(seconds: float, one_round) -> None:
    """Call ``one_round`` until ``seconds`` have passed, always finishing
    the round in progress, so every run attempts whole rounds."""
    deadline = time.perf_counter() + seconds
    while True:
        one_round()
        if time.perf_counter() >= deadline:
            return
