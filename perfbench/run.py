#!/usr/bin/env python3
"""provwrap benchmark: wrapper overhead on seeded workloads.

Run from the root of a provwrap checkout:

    python3 perfbench/run.py --workload diff-tree --seed 1 --seconds 30 --trace 0

`--workload all` runs the three workloads one after another.

It generates the workload from the seed under .perfbench_work/, makes one
untimed warm-up invocation (compiles bytecode, warms the page cache), then
runs `python -m provwrap.cli ... -- python main.py PLAN` as a subprocess in
a closed loop, one invocation at a time, for --seconds. Between
invocations, untimed, it checks every bundle against the generator's
ground truth and resets the tree.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
subprocess invocations with in-process `cli.run` calls under the probes of
probes.py, reports the per-layer metrics and writes the spans to
.perfbench_out/. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

WORKLOADS = ("diff-tree", "diff-bulk", "trace-charts")
END_TO_END = [
    ("overhead_s", "s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]
MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 90


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "strace": "present" if shutil.which("strace") else "absent",
        "dot": "present" if shutil.which("dot") else "absent",
        "page_cache": "warm: one untimed warm-up invocation first; cold-cache runs need a "
        "machine setting and are out of scope",
    }


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs, times and checks provwrap invocations on one workload."""

    def __init__(self, workload, env: dict, log_dir: Path) -> None:
        self.workload = workload
        self.env = env
        self.log = log_dir / "provwrap.stderr"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.fingerprints: set[str] = set()
        self.rows_seen = 0

    def _check(self):
        from checks import check_invocation, fingerprint

        errors, rows, window = check_invocation(self.workload.root, self.workload.expected)
        if rows:
            self.fingerprints.add(fingerprint(rows))
            self.rows_seen = len(rows)
        return errors, window

    def _finish(self, errors: list[str], result):
        """Reset the tree and count the invocation; return result unless it failed."""
        self.workload.reset()
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.append("; ".join(errors[:3]))
            return None
        return result

    def spawn(self) -> dict | None:
        """One untraced `python -m provwrap.cli` subprocess; None if it failed."""
        wl = self.workload
        argv = [sys.executable, "-m", "provwrap.cli", *wl.flags, "--", *wl.command()]
        with open(self.log, "wb") as stderr:
            spawned_at = time.time()
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=wl.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True,
            )
            watchdog = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
            watchdog.start()
            try:
                _, wait_status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = status = os.waitstatus_to_exitcode(wait_status)
        errors, window = self._check()
        if status != 0:
            tail = self.log.read_text(errors="replace")[-400:].strip()
            errors.insert(0, f"provwrap exited with {status}: {tail}")
        sample = None
        if window is not None:
            start, end = window
            sample = {
                "overhead_s": wall - (end - start),
                "wall_s": wall,
                "setup_s": start - spawned_at,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
            }
        return self._finish(errors, sample)

    def traced(self):
        """One in-process `cli.run` under the probes; returns the Tracer, or None if it failed."""
        from probes import Tracer
        from provwrap import cli

        wl = self.workload
        saved_env, saved_cwd = dict(os.environ), os.getcwd()
        os.environ.update(self.env)
        tempfile.tempdir = None  # re-read TMPDIR
        tracer = Tracer()
        os.chdir(wl.root)
        tracer.install()
        failure = []
        try:
            status = tracer.call("run", cli.run, [*wl.flags, "--", *wl.command()])
            if status != 0:
                failure.append(f"cli.run returned {status}")
        except Exception as exc:  # count a crash in the traced run as a failed run
            failure.append(f"cli.run raised {type(exc).__name__}: {exc}")
        finally:
            tracer.uninstall()
            os.chdir(saved_cwd)
            os.environ.clear()
            os.environ.update(saved_env)
            tempfile.tempdir = None
        errors, _ = self._check()
        return self._finish(failure + errors, tracer)


def describe(values: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        text += f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"
    return text + f", min {min(values):.6g}, max {max(values):.6g}, n={n}"


def run_end_to_end(runner: Runner, seconds: float) -> dict:
    samples = []
    deadline = time.monotonic() + seconds
    while len(samples) < MIN_INVOCATIONS or time.monotonic() < deadline:
        if runner.attempted >= MIN_INVOCATIONS and not samples:
            break  # every invocation fails; no point in spending the budget
        sample = runner.spawn()
        if sample is not None:
            samples.append(sample)
    print(f"end-to-end, per provwrap invocation (closed loop, one client, "
          f"{runner.attempted} attempted):")
    metrics = {}
    for name, unit in END_TO_END:
        values = [s[name] for s in samples]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"  {name:<12} {unit:<5} {describe(values)}")
    print(f"  {'failed_frac':<12} ratio {runner.failed}/{runner.attempted}")
    return metrics


def run_traced(runner: Runner, seconds: float, seed: int, spans_path: Path) -> dict:
    from probes import LAYER_METRICS, is_count

    walls, layer_runs, spans = [], [], []
    deadline = time.monotonic() + seconds
    while len(layer_runs) < MIN_INVOCATIONS or time.monotonic() < deadline:
        if runner.attempted >= 2 * MIN_INVOCATIONS and not layer_runs:
            break
        sample = runner.spawn()
        if sample is not None:
            walls.append(sample["wall_s"])
        tracer = runner.traced()
        if tracer is not None:
            layer_runs.append(tracer.metrics())
            spans.append({"metrics": layer_runs[-1], "spans": tracer.spans})
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps({"seed": seed, "invocations": spans}), encoding="utf-8")

    metrics = {}
    if not layer_runs:
        return metrics
    print(f"per layer (in-process cli.run under probes, n={len(layer_runs)}; "
          f"times are medians; spans in {spans_path}):")
    for name, unit, _, in_json, moves in LAYER_METRICS:
        values = [run[name] for run in layer_runs]
        if is_count(name, unit):
            if len(set(values)) != 1:
                runner.errors.append(f"{name} differs between traced invocations: {sorted(set(values))}")
            value = values[0]
        else:
            measured = [v for v in values if v is not None]
            value = statistics.median(measured) if measured else None
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<26} {shown:>12} {unit:<6} moves {moves}")
        if in_json:
            metrics[name] = {"value": value, "unit": unit}
    if walls:
        run_s = statistics.median(run["cli.run_s"] for run in layer_runs)
        wall = statistics.median(walls)
        print(f"tracing overhead: traced cli.run_s {run_s:.6g} s - untraced wall_s {wall:.6g} s "
              f"= {run_s - wall:+.6g} s (the in-process run skips interpreter start and imports)")
    return metrics


def run_all(args) -> int:
    """Run every workload in its own process; end with one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    checkout = Path.cwd().resolve()
    src = checkout / "src"
    if not (src / "provwrap" / "cli.py").is_file():
        print("perfbench: src/provwrap not found; run from the root of a provwrap checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import provwrap
    from workloads import GENERATORS

    if Path(provwrap.__file__).resolve().parent != src / "provwrap":
        print(f"perfbench: imported provwrap from {provwrap.__file__}, not {src}", file=sys.stderr)
        return 2

    work = checkout / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        workload = GENERATORS[args.workload](work, args.seed)
        generated_s = time.perf_counter() - t0
        env = dict(os.environ)
        env.update({"PYTHONPATH": str(src), "TMPDIR": str(work / "tmp"), "PYTHONUTF8": "1"})
        env.update(workload.env)
        runner = Runner(workload, env, work)

        print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print("environment: " + json.dumps(environment()))
        print("input: " + json.dumps(workload.stats) + f" (generated in {generated_s:.3g} s)")
        if workload.transcript is not None:
            from checks import check_standin

            runner.errors += check_standin(workload, env)
        runner.spawn()  # warm-up, checked but not timed
        runner.attempted = runner.failed = 0
        if args.trace:
            spans_path = checkout / ".perfbench_out" / f"spans-{args.workload}.json"
            metrics = run_traced(runner, args.seconds, args.seed, spans_path)
        else:
            metrics = run_end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for error in runner.errors[:5]:
        print(f"FAILED: {error}")
    fingerprints = sorted(runner.fingerprints)
    print(f"bundle fingerprint: {', '.join(fingerprints)} "
          f"({len(workload.expected)} bundles, {runner.rows_seen} records)")
    correct = not runner.errors and len(fingerprints) == 1
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
