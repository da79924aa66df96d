"""memsift benchmark: one workload, end-to-end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `memsift` need not be installed.
Inputs are built fresh from ``--seed`` in a scratch directory under
``.bench_work/`` and removed on exit.  With ``--trace 0`` every `memsift`
operation runs as a child process, one at a time, and the end-to-end
metrics are printed; with ``--trace 1`` the scan runs in process, with and
without per-layer spans, and the per-layer metrics are printed.  Every
output is checked against a result computed apart from the scanner.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import sys
import time
import tracemalloc
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import checks
from harness import (
    MIB,
    SRC,
    Ledger,
    median,
    memsift_argv,
    run_child,
    run_rounds,
    scratch_dir,
)
from workloads import WORKLOADS

# Times and counts a run reports, name -> unit.  BENCHMARK.json lists the
# same names.
END_TO_END = {
    "setup_s": "s",
    "scan_mib_s": "MiB/s",
    "scan_peak_rss_mib": "MiB",
    "strings_mib_s": "MiB/s",
}
PER_LAYER = {
    "corpus.read_mib_s": "MiB/s",
    "carver.self_s": "s",
    "carver.mib_s": "MiB/s",
    "carver.strings_ascii": "count",
    "carver.strings_utf16le": "count",
    "scanner.scan_s": "s",
    "scanner.engine_self_s": "s",
    "scanner.confidence_s": "s",
    "scanner.candidates": "count",
    "scanner.findings": "count",
    "scanner.findings_per_candidate": "ratio",
    "signatures.inline_s": "s",
    "signatures.inline_calls": "count",
    "signatures.adjacent_s": "s",
    "signatures.adjacent_pushes": "count",
    "signatures.combine_s": "s",
    "scanner.traced_peak_mib": "MiB",
    "decoding.classify_s": "s",
    "decoding.classify_calls": "count",
    "report.build_s": "s",
    "report.render_s": "s",
    "report.bytes": "count",
    "procmap.lookup_s": "s",
    "procmap.lookups": "count",
    "scanner.matrix_s": "s",
    "fabricator.fabricate_s": "s",
    "fabricator.mib_s": "MiB/s",
    "cli.startup_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Inputs are built this many times per run; setup_s is their median.
SETUP_BUILDS = 3
# Any child still running after this many seconds is killed and counted
# as failed.
CHILD_TIMEOUT = 120.0


class SetupError(Exception):
    pass


def build_inputs(workload, work: Path, seed: int, fabricate):
    """Build the workload's inputs SETUP_BUILDS times, each from scratch;
    ``fabricate(args, out)`` runs one `memsift fabricate` and says whether
    it succeeded.  Returns the last build and the wall time of each."""
    times: list[float] = []
    out = None
    for i in range(SETUP_BUILDS):
        if out is not None:
            shutil.rmtree(out)
        out = work / f"build{i}"
        start = time.perf_counter()
        if not fabricate(workload.fabricate_args(work, seed), out):
            raise SetupError(f"{workload.name}: fabricate failed")
        inputs = workload.finish(out, seed)
        times.append(time.perf_counter() - start)
    return out, inputs, times


def check_report(path: Path, expected) -> list[str]:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    problems = checks.check_findings(report, expected.findings)
    if expected.matrix_rows is not None:
        problems += checks.check_matrix(report, expected.matrix_rows)
    return problems


def throughput(nbytes: int, walls: list[float]) -> float:
    """MiB/s over every successful child of the run."""
    if not walls:
        raise ValueError("no successful samples to report")
    return nbytes * len(walls) / MIB / sum(walls)


def run_end_to_end(workload, work: Path, seed: int, seconds: float, ledger: Ledger) -> dict:
    def fabricate_child(args: list[str], out: Path) -> bool:
        result = run_child(memsift_argv("fabricate", *args, "--out", str(out)), CHILD_TIMEOUT, work)
        return ledger.record_child(result)

    out, inputs, setup_times = build_inputs(workload, work, seed, fabricate_child)
    expected = workload.expected(out, seed)
    image = inputs.strings_image
    reference = checks.reference_strings(image.read_bytes())
    report_path = work / "report.json"
    strings_path = work / "strings.txt"
    # Throughput is bytes over wall time summed across the run's children:
    # the host alternates fast and slow phases lasting seconds, and a total
    # over the whole run averages them where a median flips between them.
    scan_s: list[float] = []
    scan_rss: list[float] = []
    strings_s: list[float] = []

    def one_round() -> None:
        report_path.unlink(missing_ok=True)
        argv = memsift_argv("scan", *inputs.scan_args, "--deterministic", "--out", str(report_path))
        result = run_child(argv, CHILD_TIMEOUT, work)
        if ledger.record_child(result, lambda: check_report(report_path, expected)):
            scan_s.append(result.wall_s)
            scan_rss.append(result.peak_rss_mib)
        strings_path.unlink(missing_ok=True)
        argv = memsift_argv("strings", str(image), "--out", str(strings_path))
        result = run_child(argv, CHILD_TIMEOUT, work)
        if ledger.record_child(
            result, lambda: checks.check_strings(strings_path.read_bytes(), reference)
        ):
            strings_s.append(result.wall_s)

    run_rounds(seconds, one_round)
    return {
        "setup_s": median(setup_times),
        "scan_mib_s": throughput(inputs.scan_bytes, scan_s),
        "scan_peak_rss_mib": median(scan_rss),
        "strings_mib_s": throughput(image.stat().st_size, strings_s),
    }


def _layer_metrics(tracer, scan_bytes: int, findings: int, report_bytes: int) -> dict:
    read_s = tracer.total_s("corpus.read")
    carve_s = tracer.self_s("carver")
    candidates = tracer.calls["scanner.confidence"]
    return {
        "corpus.read_mib_s": tracer.bytes_read / MIB / read_s,
        "carver.self_s": carve_s,
        "carver.mib_s": scan_bytes / MIB / carve_s,
        "carver.strings_ascii": tracer.strings["ascii"],
        "carver.strings_utf16le": tracer.strings["utf16le"],
        "scanner.scan_s": tracer.total_s("scanner.scan"),
        "scanner.engine_self_s": tracer.self_s("scanner.scan"),
        "scanner.confidence_s": tracer.total_s("scanner.confidence"),
        "scanner.candidates": candidates,
        "scanner.findings": findings,
        "scanner.findings_per_candidate": findings / candidates if candidates else 0.0,
        "signatures.inline_s": tracer.total_s("signatures.inline"),
        "signatures.inline_calls": tracer.calls["signatures.inline"],
        "signatures.adjacent_s": tracer.total_s("signatures.adjacent"),
        "signatures.adjacent_pushes": tracer.calls["signatures.adjacent"],
        "signatures.combine_s": tracer.total_s("signatures.combine"),
        "decoding.classify_s": tracer.total_s("decoding.classify"),
        "decoding.classify_calls": tracer.calls["decoding.classify"],
        "report.build_s": tracer.total_s("report.build"),
        "report.render_s": tracer.total_s("report.render"),
        "report.bytes": report_bytes,
        "procmap.lookup_s": tracer.total_s("procmap.lookup"),
        "procmap.lookups": tracer.calls["procmap.lookup"],
        "scanner.matrix_s": tracer.total_s("scanner.matrix"),
    }


def run_traced(workload, work: Path, seed: int, seconds: float, ledger: Ledger) -> dict:
    import memsift.cli as cli
    from tracing import Tracer, instrumented

    fabricate_times: list[float] = []

    def fabricate_in_process(args: list[str], out: Path) -> bool:
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            code = cli.main(["fabricate", *args, "--out", str(out)])
        fabricate_times.append(time.perf_counter() - start)
        return ledger.record("fabricate (in process)", [f"exit {code}"] if code else [], ran=not code)

    out, inputs, _ = build_inputs(workload, work, seed, fabricate_in_process)
    expected = workload.expected(out, seed)
    scan_bytes = inputs.scan_bytes
    report_path = work / "report.json"
    argv = ["scan", *inputs.scan_args, "--deterministic", "--out", str(report_path)]

    def scan_in_process(tracer=None) -> float | None:
        report_path.unlink(missing_ok=True)
        start = time.perf_counter()
        with instrumented(tracer) if tracer else nullcontext():
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        problems = [f"exit {code}"] if code else check_report(report_path, expected)
        traced = "traced" if tracer else "untraced"
        ok = ledger.record(f"scan ({traced}, in process)", problems, ran=not code)
        return elapsed if ok else None

    plain_s: list[float] = []
    traced_s: list[float] = []
    layers: list[dict] = []
    startup_s: list[float] = []

    def one_round() -> None:
        elapsed = scan_in_process()
        if elapsed is not None:
            plain_s.append(elapsed)
        tracer = Tracer()
        elapsed = scan_in_process(tracer)
        if elapsed is not None:
            traced_s.append(elapsed)
            report = json.loads(report_path.read_text(encoding="utf-8"))
            findings = sum(len(img["findings"]) for img in report["images"])
            layers.append(_layer_metrics(tracer, scan_bytes, findings, report_path.stat().st_size))
        result = run_child(memsift_argv("--version"), CHILD_TIMEOUT, work)
        if ledger.record_child(result):
            startup_s.append(result.wall_s)

    run_rounds(seconds, one_round)

    # Peak Python heap of one scan, in a pass of its own so the traced
    # timings above are not slowed by tracemalloc.
    tracemalloc.start()
    try:
        ok = scan_in_process() is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    if not (ok and layers):
        raise SetupError("a traced or tracemalloc scan never succeeded")
    metrics = {name: median([row[name] for row in layers]) for name in layers[0]}
    fabricate_s = median(fabricate_times)
    metrics.update({
        "scanner.traced_peak_mib": peak / MIB,
        "fabricator.fabricate_s": fabricate_s,
        "fabricator.mib_s": scan_bytes / MIB / fabricate_s,
        "cli.startup_s": median(startup_s),
        "trace.overhead_ratio": median(traced_s) / median(plain_s),
    })
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for this long; the round in progress completes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from the traced in-process pass")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "memsift" / "__init__.py").is_file():
        print(f"bench: no memsift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    runner = run_traced if args.trace else run_end_to_end
    units = PER_LAYER if args.trace else END_TO_END
    with scratch_dir(prefix=f"{workload.name}-") as work:
        try:
            values = runner(workload, work, args.seed, args.seconds, ledger)
        except (SetupError, ValueError) as exc:  # no inputs, or no sample
            print(f"bench: {exc}", file=sys.stderr)
            return 1
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
