"""spsa-lab benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's spsa-lab command runs in a
closed loop, one child process at a time, each started after the previous
one exits and its outputs were checked (see checks.py).  With ``--trace 0``
the last line of stdout is a JSON object holding the end-to-end metrics of
BENCHMARK.json, each a median over the commands of the run; with
``--trace 1`` it holds the per-layer metrics of one traced command (see
tracing.py).  The exit code is nonzero, with no result printed, when the
program cannot be started at all.
"""

from __future__ import annotations

import os

# BLAS pools pinned to one thread, in this process and in every child: the
# engine works on vectors of at most a few thousand doubles, so extra BLAS
# threads add no speed, only idle spinning that shows up in cpu_s
BLAS_THREADS = {
    v: "1"
    for v in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"

# The experiment's thread pool holds the GIL, so a second worker buys no
# wall time but adds ~30% cpu_s and a probe chunk's worth of memory; one
# worker also keeps the figures the same on any machine with >= 1 core.
WORKERS = 1
MIN_OPS = 3
# a run stops starting commands once it would pass this, whatever --seconds says
HARD_LIMIT_S = 140.0
COMMAND_TIMEOUT_S = 120.0
# the traced run: untraced commands for the overhead baseline, and
# fresh-interpreter import timings
TRACE_BASELINE_OPS = 2
IMPORT_REPEATS = 3


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_THREADS)
    env.pop("SPSA_LAB_WORKERS", None)
    return env


class Fatal(Exception):
    """The program cannot be started; the run has no result."""


@dataclass
class Op:
    code: int
    wall_s: float
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float
    failures: list = field(default_factory=list)
    rows_written: int = 0

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.failures


def _count_rows(out: Path) -> int:
    rows = 0
    for path in out.glob("*.csv"):
        with open(path, "rb") as fh:
            rows += sum(1 for _ in fh) - 1
    return rows


def run_command(wl: workloads.Workload, work: Path, ref: dict, spans: Path | None = None) -> Op:
    """Launch one command, time it from outside, then check its outputs."""
    out, mark, err = work / "out", work / "entered", work / "stderr.txt"
    shutil.rmtree(out, ignore_errors=True)
    mark.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "entry.py"), str(mark)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    argv += ["--", wl.command, "--config", str(work / "config.json"), "--out", str(out), "--workers", str(WORKERS)]
    with open(err, "w", encoding="utf-8") as err_fh:
        t0 = now()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err_fh)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = now()
        killer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    setup = float(mark.read_text()) - t0 if mark.exists() else None
    op = Op(code, t1 - t0, setup, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if code != 0:
        tail = err.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        print(f"{wl.name}: exit {code}: {' | '.join(tail)}", file=sys.stderr)
    else:
        op.failures = checks.check(wl, out, ref)
        op.rows_written = _count_rows(out)
        for name, detail in op.failures:
            print(f"{wl.name}: check {name} failed: {detail}", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)
    return op


def warm_up() -> None:
    """Import the package once, untimed: it must start, and its bytecode gets cached."""
    if not (ROOT / "src" / "spsa_lab" / "cli.py").is_file():
        raise Fatal(f"no spsa_lab package under {ROOT / 'src'}")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import spsa_lab.cli"],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise Fatal("import spsa_lab.cli did not finish") from exc
    if proc.returncode != 0:
        raise Fatal(f"import spsa_lab.cli failed: {proc.stderr.strip()}")


def import_seconds(module: str) -> float:
    """Median time of ``import module`` in fresh interpreters."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def end_to_end(wl: workloads.Workload, ops: list[Op]) -> dict[str, float]:
    # only commands that succeeded are timed: one that exits early is no faster
    timed = [op for op in ops if op.ok]
    if not timed:
        raise Fatal(f"none of {len(ops)} commands succeeded")
    med = statistics.median
    return {
        "wall_s": med(op.wall_s for op in timed),
        "setup_s": med(op.setup_s for op in timed),
        "cpu_s": med(op.cpu_s for op in timed),
        "peak_rss_mb": med(op.peak_rss_mb for op in timed),
        "lane_steps_per_s": med(wl.lane_steps / (op.wall_s - op.setup_s) for op in timed),
    }


def closed_loop(wl, work, ref, seconds: float) -> list[Op]:
    """Commands back to back until the next one would end after ``seconds``."""
    ops: list[Op] = []
    start = now()
    while True:
        ops.append(run_command(wl, work, ref))
        elapsed = now() - start
        per_op = elapsed / len(ops)
        if elapsed + per_op > HARD_LIMIT_S or (len(ops) >= MIN_OPS and elapsed + per_op > seconds):
            return ops


def traced(wl, work, ref) -> tuple[list[Op], dict[str, float]]:
    layer = {
        "import.spsa_lab_s": import_seconds("spsa_lab"),
        "import.scipy_stats_s": import_seconds("scipy.stats"),
    }
    ops = [run_command(wl, work, ref) for _ in range(TRACE_BASELINE_OPS)]
    spans = work / "spans.npz"
    op = run_command(wl, work, ref, spans=spans)
    baseline = [o.wall_s for o in ops if o.ok]
    ops.append(op)
    if not (op.ok and baseline):
        raise Fatal(f"{sum(not o.ok for o in ops)} of {len(ops)} commands of the traced run failed")
    layer.update(tracing.layer_metrics(spans))
    shutil.copyfile(spans, OUT / f"trace-{wl.name}.npz")
    layer["cli.rows_written"] = op.rows_written
    layer["trace.overhead_s"] = op.wall_s - statistics.median(baseline)
    return ops, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = workloads.make(args.workload, args.seed)
    work = OUT / f"{wl.name}-{os.getpid()}"
    try:
        warm_up()
        work.mkdir(parents=True, exist_ok=True)
        (work / "config.json").write_text(json.dumps(wl.config, indent=2) + "\n")
        ref = checks.reference(wl, args.seed)
        if args.trace:
            ops, values = traced(wl, work, ref)
        else:
            ops = closed_loop(wl, work, ref, args.seconds)
            values = end_to_end(wl, ops)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not any(op.code == 0 and op.failures for op in ops),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
