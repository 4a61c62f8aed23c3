"""Benchmark of the retrobio CLI on the plan, curate and learn workloads.

    python3 bench/run.py --workload plan --seed 1 --seconds 25 --trace 0

Every operation is a fresh child process that calls
``retrobio.cli.main(argv)`` through bench/shim.py, run one after another: a
closed loop with one client. A pass is one run of the workload's operations;
passes repeat for at least --seconds and at least MIN_PASSES times. Set-up is
repeated and its median reported.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
passes with passes in which the shim wraps the retrobio modules, and reports
the per-layer metrics.

The output lists the machine facts, each operation, every check that failed
and every metric with its unit. The last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with the output digests, is written to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC, TESTS = ROOT / "src", ROOT / "tests"
WORK = ROOT / ".bench_work"
SHIM = BENCH / "shim.py"

MIN_PASSES = 3
# Set-up runs at least SETUP_REPS times and, while cheap, until it has taken
# SETUP_MIN_S in all, at most SETUP_MAX_REPS times.
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.0, 30
DEADLINE_S = 170.0  # no operation starts, and every child is killed, after this
STARTUP_PROBES = 3
# A traced operation's wall outside its cli span may exceed the start-up
# measured by the probes by this factor plus this many seconds.
RECONCILE_FACTOR, RECONCILE_SLACK_S = 2.0, 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "retro_p50_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    pass


@dataclass
class Child:
    code: int
    start: float
    wall: float
    cpu: float


@dataclass
class OpResult:
    name: str
    child: Child
    rss_mb: float  # the child's own peak resident size, reported by the shim
    problems: list[str]
    digests: dict[str, str]
    uncovered: float | None = None  # traced only: wall outside the cli span


@dataclass
class Pass:
    traced: bool
    results: list[OpResult]
    layers: dict[str, float] = field(default_factory=dict)


class Runner:
    """Starts retrobio child processes with pinned thread counts."""

    def __init__(self, cores: int, logs: Path, deadline: float):
        self.threads = min(cores, os.cpu_count() or 1)
        pinned = str(self.threads)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            OPENBLAS_NUM_THREADS=pinned,
            OMP_NUM_THREADS=pinned,
            MKL_NUM_THREADS=pinned,
        )
        self.logs = logs
        self.deadline = deadline
        # A single-threaded workload takes the cores in turn, so that one
        # core's contention from other tenants weighs on every operation alike.
        self.rotation = sorted(os.sched_getaffinity(0)) if cores == 1 else []
        self.spawned = 0

    def spawn(self, argv: list[str], name: str) -> Child:
        start = time.monotonic()
        with open(self.logs / f"{name}.log", "wb") as log:
            proc = subprocess.Popen(
                argv, env=self.env, cwd=ROOT,
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            )
        if len(self.rotation) > 1:
            try:
                os.sched_setaffinity(proc.pid, {self.rotation[self.spawned % len(self.rotation)]})
            except OSError:  # the child may already have exited
                pass
        self.spawned += 1
        timer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, start, wall, usage.ru_utime + usage.ru_stime)

    def cli(self, argv: list[str], name: str) -> None:
        """Run a set-up command; raise SetupError if it fails."""
        child = self.spawn([sys.executable, "-m", "retrobio.cli", *argv], name)
        if child.code != 0:
            raise SetupError(f"{name} exited {child.code}; see {self.logs / name}.log")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_shim(runner: Runner, work: Path, name: str, op_id: int, traced: bool, argv: list[str]):
    """(Child, result header, spans) of one child run through the shim."""
    result_path = work / "op.json"
    result_path.unlink(missing_ok=True)
    child = runner.spawn(
        [sys.executable, str(SHIM), str(result_path), str(op_id), str(int(traced)), *argv], name
    )
    if not result_path.is_file():
        return child, None, []
    header, spans = summarize.load(result_path)
    result_path.unlink()
    return child, header, spans


def run_op(runner: Runner, op, work: Path, op_id: int, traced: bool):
    """(OpResult, spans) of one operation."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    child, header, spans = run_shim(runner, work, op.name, op_id, traced, op.argv)
    problems = [] if child.code == 0 else [f"exit code {child.code}"]
    if header is None:
        problems.append("no result file written")
    if not problems:
        try:
            problems = op.check()
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"check could not read the outputs: {exc!r}"]
    digests = {
        str(path.relative_to(work)): sha256(path) for path in op.outputs if path.is_file()
    }
    rss_mb = header["peak_rss_kb"] / 1024 if header else 0.0
    result = OpResult(op.name, child, rss_mb, problems, digests)
    if traced and header:
        result.uncovered = header["dump_start"] - child.start - summarize.cli_covered(spans)
    return result, spans


def run_pass(runner, ops, work, number, traced, reference) -> Pass:
    """One pass over ``ops``; outputs must match ``reference`` digests."""
    results, spans = [], []
    for i, op in enumerate(ops):
        result, op_spans = run_op(runner, op, work, 1000 * number + i, traced)
        for name, digest in result.digests.items():
            if reference.setdefault(name, digest) != digest:
                result.problems.append(f"{name} differs from the first pass")
        results.append(result)
        spans.extend(op_spans)
    done = Pass(traced, results)
    if traced:
        done.layers = summarize.layer_metrics(spans)
    return done


def probe_startup(runner: Runner, work: Path) -> float:
    """Median wall of a traced child that runs no command, up to its dump."""
    walls = []
    for i in range(STARTUP_PROBES):
        child, header, _ = run_shim(runner, work, f"probe{i}", 0, True, [])
        if child.code != 0 or header is None:
            raise SetupError(f"start-up probe exited {child.code}")
        walls.append(header["dump_start"] - child.start)
    return statistics.median(walls)


def pass_sum(passes: list[Pass], attr: str) -> float:
    """A pass's total of ``attr``: the sum over its operations of each
    operation's median across ``passes``. Medians per operation keep a
    short stall of the machine out of the total."""
    return sum(
        statistics.median(getattr(p.results[i].child, attr) for p in passes)
        for i in range(len(passes[0].results))
    )


def latency_samples(workload: str, passes: list[Pass]) -> list[float]:
    """One sample per request: a retro target on plan, a pass elsewhere."""
    if workload == "plan":
        return [r.child.wall for p in passes for r in p.results]
    return [sum(r.child.wall for r in p.results) for p in passes]


def tail_percentile(n: int) -> int | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    fitting = [q for q in (50, 75, 90, 95, 99) if n * (100 - q) / 100 >= 10]
    return fitting[-1] if fitting else None


def end_to_end(workload: str, passes: list[Pass], setup_times: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": pass_sum(passes, "wall"),
        "cpu_s": pass_sum(passes, "cpu"),
        "retro_p50_s": statistics.median(latency_samples(workload, passes)),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p.results) for p in passes),
    }


def per_layer(traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    values = {
        name: statistics.median(p.layers[name] for p in traced)
        for name in traced[0].layers
    }
    values["trace.overhead_s"] = pass_sum(traced, "wall") - pass_sum(untraced, "wall")
    values["trace.uncovered_s"] = statistics.median(
        r.uncovered for p in traced for r in p.results
    )
    return values


def reconcile(traced: list[Pass], startup: float) -> None:
    """Flag a traced operation whose cli span leaves more than start-up
    uncovered: work that runs outside every wrapper."""
    limit = RECONCILE_FACTOR * startup + RECONCILE_SLACK_S
    for p in traced:
        for r in p.results:
            if r.uncovered is None:
                r.problems.append("no span file written")
            elif r.uncovered > limit:
                r.problems.append(
                    f"cli span leaves {r.uncovered:.3f} s uncovered; start-up is {startup:.3f} s"
                )


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out[1] if Path(out[0]).resolve() == ROOT else "unknown"


def machine_facts(threads: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "commit": git_commit(),
    }


def measure(runner: Runner, ops, work: Path, args, started: float):
    """(passes, output digests of the first pass). Passes run until --seconds
    have passed and MIN_PASSES are done; with --trace 1, in rounds of one
    untraced and one traced pass."""
    reference: dict[str, str] = {}
    passes: list[Pass] = []
    modes = (False, True) if args.trace else (False,)
    measuring = time.monotonic()
    while True:
        for traced in modes:
            passes.append(run_pass(runner, ops, work, len(passes), traced, reference))
        now = time.monotonic()
        per_round = (now - measuring) / (len(passes) / len(modes))
        if now + per_round > started + DEADLINE_S:
            break
        if now - measuring >= args.seconds and (args.trace or len(passes) >= MIN_PASSES):
            break
    return passes, reference


def print_report(record: dict, failed: list[OpResult], samples: list[float]) -> None:
    for key, value in record["facts"].items():
        print(f"fact {key} {value}")
    print(f"set-up runs {len(record['setup_times'])}")
    for op in record["ops"]:
        print(f"op pass={op['pass']} traced={int(op['traced'])} {op['name']} exit={op['code']} "
              f"wall={op['wall']:.3f}s cpu={op['cpu']:.3f}s rss={op['rss_mb']:.1f}MB")
    for r in failed:
        print(f"FAILED {r.name}: {'; '.join(r.problems)}")
    print(f"failed_ratio {record['failed_ratio']:.6g} ({len(failed)}/{len(record['ops'])})")
    tail = tail_percentile(len(samples))
    print(f"latency samples {len(samples)}; tail percentile with ten samples beyond: "
          + (f"p{tail} {statistics.quantiles(samples, n=100)[tail - 1]:.4f} s" if tail else "none"))
    if record["trace"]:
        print(f"trace start-up {record['startup_s']:.4f} s")
    for name, metric in record["metrics"].items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("plan", "curate", "learn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind through Runner.spawn so the running child is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    if not (SRC / "retrobio" / "cli.py").is_file() or not (TESTS / "synthdata.py").is_file():
        print(f"error: {ROOT} holds no retrobio checkout (src/retrobio, tests/synthdata.py)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    from workloads import WORKLOADS, fresh_dir

    workload = WORKLOADS[args.workload]
    work = fresh_dir(WORK / f"{workload.name}-{os.getpid()}")
    runner = Runner(workload.cores, fresh_dir(work / "logs"), started + DEADLINE_S)
    facts = machine_facts(runner.threads)
    try:
        setup_times = []
        while not setup_times or not args.trace and (
            len(setup_times) < SETUP_REPS
            or sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS
        ):
            t0 = time.monotonic()
            ops = workload.setup(work, args.seed, runner.cli)
            setup_times.append(time.monotonic() - t0)
        startup = probe_startup(runner, work) if args.trace else 0.0
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    passes, digests = measure(runner, ops, work, args, started)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if args.trace:
        reconcile(traced, startup)
        metrics = per_layer(traced, untraced)
        units = summarize.metric_units()
    else:
        metrics = end_to_end(workload.name, passes, setup_times)
        units = END_TO_END_UNITS
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": facts,
        "setup_times": setup_times,
        "startup_s": startup,
        "ops": [
            {"pass": i, "traced": p.traced, "name": r.name, "code": r.child.code,
             "wall": r.child.wall, "cpu": r.child.cpu, "rss_mb": r.rss_mb,
             "uncovered": r.uncovered, "problems": r.problems}
            for i, p in enumerate(passes) for r in p.results
        ],
        "digests": digests,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    results = [r for p in passes for r in p.results]
    failed = [r for r in results if r.problems]
    record["failed_ratio"] = len(failed) / len(results)
    print_report(record, failed, latency_samples(workload.name, untraced))
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
