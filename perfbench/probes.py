"""Timing probes for the traced run, installed from outside the package.

`Tracer.install` replaces module-level names that `provwrap.cli.run` and
the layers call (for example `sha256_file` as imported by `monitor`,
`classify` and `bundle`) with wrappers that record a span per call: name,
start, end and the span that was open when it started. Spans stay in
memory; `Tracer.metrics` folds them into the per-layer metrics and the
caller writes them out at the end of the run. `uninstall` puts every
original name back, so the bundle checks run unprobed.

Submodules are fetched with importlib because `provwrap/__init__.py`
re-exports the function `classify` under its submodule's name.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict

# name, unit, better, in BENCHMARK.json, what it should move and where.
# Metrics that read 0 on some workload (a layer the workload never runs)
# are printed but kept out of the JSON result; monitor.observe_s carries
# their time there.
LAYER_METRICS = [
    ("runmeta.capture_s", "s", "lower", True, "wall_s, all workloads (equals the child's time)"),
    ("monitor.observe_s", "s", "lower", True, "snapshot_s + diff_s + trace_parse_s; overhead_s, all workloads"),
    ("monitor.snapshot_s", "s", "lower", False, "setup_s, overhead_s on diff-tree"),
    ("monitor.snapshot_files", "count", "lower", False, "setup_s, overhead_s on diff-tree"),
    ("monitor.diff_s", "s", "lower", False, "overhead_s on diff-tree"),
    ("monitor.sha256_calls", "count", "lower", True, "overhead_s on diff-tree"),
    ("monitor.sha256_bytes", "bytes", "lower", True, "overhead_s on diff-bulk"),
    ("monitor.sha256_s", "s", "lower", True, "overhead_s on diff-bulk and diff-tree"),
    ("classify.sha256_calls", "count", "lower", True, "overhead_s on diff-bulk and trace-charts"),
    ("bundle.sha256_calls", "count", "lower", True, "overhead_s on diff-bulk and trace-charts"),
    ("monitor.rehash_ratio", "ratio", "lower", True, "overhead_s on diff-bulk and diff-tree"),
    ("monitor.largest_file_hashes", "count", "lower", True, "overhead_s on diff-bulk (the 200 MB input)"),
    ("monitor.exclusion_calls", "count", "lower", True, "setup_s, overhead_s on diff-tree"),
    ("monitor.exclusion_s", "s", "lower", True, "setup_s, overhead_s on diff-tree"),
    ("monitor.trace_parse_s", "s", "lower", False, "overhead_s on trace-charts"),
    ("monitor.trace_lines", "count", "lower", False, "overhead_s on trace-charts (input size)"),
    ("monitor.trace_events", "count", "lower", False, "overhead_s on trace-charts"),
    ("monitor.trace_lines_per_s", "1/s", "higher", False, "overhead_s on trace-charts"),
    ("monitor.control_parse_s", "s", "lower", True, "overhead_s on trace-charts"),
    ("monitor.directives", "count", "lower", False, "overhead_s on trace-charts (input size)"),
    ("cli.run_s", "s", "lower", True, "wall_s, all workloads"),
    ("cli.self_s", "s", "lower", True, "overhead_s on trace-charts (includes the watched-root filter)"),
    ("cli.unify_s", "s", "lower", True, "overhead_s on trace-charts"),
    ("cli.trace_kept_ratio", "ratio", "lower", False, "overhead_s on trace-charts"),
    ("classify.classify_s", "s", "lower", True, "overhead_s on trace-charts"),
    ("classify.self_s", "s", "lower", True, "overhead_s on trace-charts"),
    ("classify.records", "count", "lower", False, "overhead_s on trace-charts (output size)"),
    ("classify.segments", "count", "lower", False, "overhead_s on trace-charts (output size)"),
    ("provmodel.build_s", "s", "lower", True, "overhead_s on trace-charts"),
    ("provmodel.validate_s", "s", "lower", True, "overhead_s on trace-charts"),
    ("provmodel.validate_calls", "count", "lower", True, "overhead_s on trace-charts"),
    ("serialize.prov_json_s", "s", "lower", True, "overhead_s on trace-charts"),
    ("serialize.rocrate_s", "s", "lower", True, "overhead_s on trace-charts"),
    ("serialize.bytes_out", "bytes", "lower", False, "overhead_s on trace-charts (output size)"),
    ("bundle.write_s", "s", "lower", True, "overhead_s on diff-bulk and trace-charts"),
    ("bundle.self_s", "s", "lower", True, "overhead_s on diff-bulk (copy) and trace-charts (mkdir)"),
    ("bundle.files_copied", "count", "lower", False, "overhead_s on trace-charts (output size)"),
    ("bundle.bytes_copied", "bytes", "lower", False, "overhead_s on diff-bulk (output size)"),
    ("bundle.count", "count", "lower", False, "overhead_s on trace-charts (output size)"),
    ("bundle.allocate_s", "s", "lower", True, "overhead_s on trace-charts"),
    ("bundle.allocate_probes", "count", "lower", True, "overhead_s on trace-charts"),
]

_GENERATED = {"provenance.json", "provenance.dot", "provenance.svg", "ro-crate-metadata.json"}


def is_count(name: str, unit: str) -> bool:
    """Counters must repeat exactly for one seed; times and rates need not."""
    return unit in ("count", "bytes") or name == "monitor.rehash_ratio"


class Tracer:
    """Spans and counters for one in-process `cli.run` call."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.digest_sizes: dict[str, int] = {}
        self.digest_hashes: Counter = Counter()

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _patch(self, module_name, attr, name, after=None, before=None):
        module = importlib.import_module(f"provwrap.{module_name}")
        original = getattr(module, attr)

        def probe(*args, **kwargs):
            if before is not None:
                args = before(*args)
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, probe)

    def install(self) -> None:
        counts = self.counts

        def hashed(caller):
            def after(digest, path):
                size = os.stat(path).st_size
                counts[f"{caller}.sha256_bytes"] += size
                self.digest_sizes[digest] = size
                self.digest_hashes[digest] += 1
            return after

        def count_lines(lines, *rest):
            def counted():
                for line in lines:
                    counts["monitor.trace_lines"] += 1
                    yield line
            return (counted(), *rest)

        def unify_before(events, *rest):
            counts["cli.unified_events"] += len(events)
            return (events, *rest)

        def allocated(path, *args):
            counts["bundle.allocate_probes"] += int(path.name.rsplit("_", 1)[1]) + 1

        def classified(segments, *args):
            counts["classify.segments"] += len(segments)
            counts["classify.records"] += sum(len(s.records) for s in segments)

        def serialized(data, *args):
            counts["serialize.bytes_out"] += len(data)

        def written(report, *args):
            copied = [f for f in report.files_written if f not in _GENERATED]
            counts["bundle.files_copied"] += len(copied)
            counts["bundle.bytes_copied"] += report.bytes_copied

        for caller in ("monitor", "classify", "bundle"):
            self._patch(caller, "sha256_file", f"sha256@{caller}", after=hashed(caller))
        for caller in ("monitor", "classify"):
            self._patch(caller, "matches_exclusion", f"exclusion@{caller}")
        self._patch("cli", "capture_run", "capture")
        self._patch("cli", "take_snapshot", "snapshot",
                    after=lambda snap, *a: counts.update({"monitor.snapshot_files": len(snap.entries)}))
        self._patch("cli", "diff_snapshots", "diff")
        self._patch("cli", "parse_trace_stream", "trace_parse", before=count_lines,
                    after=lambda events, *a: counts.update({"monitor.trace_events": len(events)}))
        self._patch("cli", "parse_control_stream", "control_parse",
                    after=lambda directives, *a: counts.update({"monitor.directives": len(directives)}))
        self._patch("cli", "unify_timeline", "unify", before=unify_before)
        self._patch("cli", "classify", "classify", after=classified)
        self._patch("cli", "allocate_run_dir", "allocate", after=allocated)
        self._patch("cli", "build_document", "build")
        self._patch("bundle", "build_document", "build")
        self._patch("serialize", "validate", "validate")
        self._patch("bundle", "to_prov_json", "prov_json", after=serialized)
        self._patch("bundle", "to_rocrate_metadata", "rocrate", after=serialized)
        self._patch("cli", "write_bundle", "write_bundle", after=written)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def metrics(self) -> dict[str, float | None]:
        """Fold the spans and counters of one run into the per-layer metrics."""
        total: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        self_time: defaultdict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            self_time[name] += end - start
        for name, start, end, parent in self.spans:
            if parent is not None:
                self_time[self.spans[parent][0]] -= end - start

        c = self.counts
        sha_callers = ("monitor", "classify", "bundle")
        hashed_bytes = sum(c[f"{caller}.sha256_bytes"] for caller in sha_callers)
        distinct_bytes = sum(self.digest_sizes.values())
        trace_s = total["trace_parse"]
        largest = max(self.digest_sizes, key=lambda d: (self.digest_sizes[d], d), default=None)
        m: dict[str, float | None] = {
            "runmeta.capture_s": total["capture"],
            "monitor.observe_s": total["snapshot"] + total["diff"] + trace_s,
            "monitor.snapshot_s": total["snapshot"],
            "monitor.snapshot_files": c["monitor.snapshot_files"],
            "monitor.diff_s": total["diff"],
            "monitor.sha256_calls": sum(calls[f"sha256@{caller}"] for caller in sha_callers),
            "monitor.sha256_bytes": hashed_bytes,
            "monitor.sha256_s": sum(total[f"sha256@{caller}"] for caller in sha_callers),
            "classify.sha256_calls": calls["sha256@classify"],
            "bundle.sha256_calls": calls["sha256@bundle"],
            "monitor.rehash_ratio": hashed_bytes / distinct_bytes if distinct_bytes else None,
            "monitor.largest_file_hashes": self.digest_hashes[largest] if largest else 0,
            "monitor.exclusion_calls": calls["exclusion@monitor"] + calls["exclusion@classify"],
            "monitor.exclusion_s": total["exclusion@monitor"] + total["exclusion@classify"],
            "monitor.trace_parse_s": trace_s,
            "monitor.trace_lines": c["monitor.trace_lines"],
            "monitor.trace_events": c["monitor.trace_events"],
            "monitor.trace_lines_per_s": c["monitor.trace_lines"] / trace_s if trace_s else None,
            "monitor.control_parse_s": total["control_parse"],
            "monitor.directives": c["monitor.directives"],
            "cli.run_s": total["run"],
            "cli.self_s": self_time["run"],
            "cli.unify_s": total["unify"],
            "cli.trace_kept_ratio": (
                c["cli.unified_events"] / c["monitor.trace_events"]
                if c["monitor.trace_events"] else None
            ),
            "classify.classify_s": total["classify"],
            "classify.self_s": self_time["classify"],
            "classify.records": c["classify.records"],
            "classify.segments": c["classify.segments"],
            "provmodel.build_s": total["build"],
            "provmodel.validate_s": total["validate"],
            "provmodel.validate_calls": calls["validate"],
            "serialize.prov_json_s": total["prov_json"],
            "serialize.rocrate_s": total["rocrate"],
            "serialize.bytes_out": c["serialize.bytes_out"],
            "bundle.write_s": total["write_bundle"],
            "bundle.self_s": self_time["write_bundle"],
            "bundle.files_copied": c["bundle.files_copied"],
            "bundle.bytes_copied": c["bundle.bytes_copied"],
            "bundle.count": calls["write_bundle"],
            "bundle.allocate_s": total["allocate"],
            "bundle.allocate_probes": c["bundle.allocate_probes"],
        }
        return m
