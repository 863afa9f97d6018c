"""Command-line wrapper: observe, spawn, collect, classify, build, write.

Usage: provwrap [flags] -- COMMAND [ARG...]

The child's stdout/stderr pass through untouched; all wrapper diagnostics
go to stderr. The wrapper exits with the child's status (bundles are
written even when the child fails), 2 for usage errors, 3 for provenance
failures after a successful child run, and 127 when the command cannot be
spawned at all.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import os
import shutil
import sys
import tempfile
from pathlib import Path

from .bundle import allocate_run_dir, write_bundle
from .classify import (
    DEFAULT_EXCLUDES,
    InputCopies,
    RunConfig,
    classify,
    exclusion_patterns,
    locate,
    unify_timeline,
    watched_roots,
)
from .monitor import (
    _stamp_ctime_ns,
    FileEvent,
    PathResolver,
    Snapshot,
    diff_snapshots,
    index_directory,
    index_file,
    load_snapshot,
    parse_control_stream,
    parse_trace_stream,
    save_indexes,
    take_snapshot,
)
from .provmodel import build_document  # unused; perfbench/probes.py patches it here
from .runmeta import RunMetadata, capture_run

log = logging.getLogger(__name__)

USAGE_EXIT = 2
PROVENANCE_EXIT = 3
SPAWN_EXIT = 127

_STRACE_ARGS = ["-f", "-qq", "-e", "trace=open,openat,creat", "-s", "4096"]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="provwrap",
        description="Run a command and package its inputs, outputs and "
        "source into a re-executable provenance bundle.",
        epilog="Separate wrapper flags from the wrapped command with `--`.",
    )
    parser.add_argument("--name", default="experiment_run", help="run name")
    parser.add_argument("--dir", default="prov", help="provenance directory base name")
    parser.add_argument("--prefix", default="yProv4DA", help="qualified-name prefix")
    parser.add_argument(
        "--namespace", default="http://example.org/", help="namespace URI for the prefix"
    )
    parser.add_argument(
        "--json", action="store_true", help="also write a standalone provenance JSON copy"
    )
    parser.add_argument("--dot", action="store_true", help="write provenance.dot")
    parser.add_argument("--svg", action="store_true", help="write provenance.svg")
    parser.add_argument(
        "--no-rocrate", action="store_true", help="skip ro-crate-metadata.json"
    )
    parser.add_argument(
        "--no-save-inputs",
        action="store_true",
        help="record input metadata only, do not copy input files",
    )
    parser.add_argument(
        "--subset-inputs",
        action="store_true",
        help="subset mode: inputs are recorded with digests but not copied",
    )
    parser.add_argument(
        "--max-file-mb", type=int, default=50, help="skip copying files larger than this"
    )
    parser.add_argument(
        "--source-ext",
        action="append",
        default=[],
        metavar="EXT",
        help="extension treated as source code (repeatable; default .py)",
    )
    parser.add_argument(
        "--source-root",
        action="append",
        default=[],
        metavar="GLOB",
        help="paths under this glob are source code (repeatable)",
    )
    parser.add_argument(
        "--watch",
        action="append",
        default=[],
        metavar="DIR",
        help="additional directory to snapshot (repeatable)",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="GLOB",
        help="exclude matching paths from tracking (repeatable)",
    )
    parser.add_argument(
        "--backend", choices=["auto", "diff", "trace"], default="auto"
    )
    parser.add_argument("--verbose", action="store_true")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    extensions = {
        ext if ext.startswith(".") else f".{ext}" for ext in args.source_ext
    } or {".py"}
    input_copies = InputCopies.NONE if args.no_save_inputs else InputCopies.FULL
    if args.subset_inputs:  # wins over --no-save-inputs
        input_copies = InputCopies.SUBSET
    return RunConfig(
        run_name=args.name,
        provenance_directory=args.dir,
        prefix=args.prefix,
        default_namespace=args.namespace,
        create_json_file=args.json,
        create_dot_file=args.dot,
        create_svg_file=args.svg,
        create_rocrate=not args.no_rocrate,
        input_copies=input_copies,
        skip_files_larger_than=args.max_file_mb,
        source_extensions=frozenset(extensions),
        source_roots=tuple(args.source_root),
        watch_dirs=tuple(Path(w) for w in args.watch),
        excludes=DEFAULT_EXCLUDES + tuple(args.exclude),
    )


def detect_entry_script(command: list[str], cwd: Path, extensions: frozenset[str]) -> Path | None:
    """Best-effort guess of the wrapped command's entry script.

    The first argument naming an existing file with a source extension wins,
    taken from cwd by a `PathResolver`; interpreters and flags name none.
    """
    for arg in command:
        candidate = cwd / arg  # isfile below, unlike Path.is_file, is False for a name too long
        if os.path.isfile(candidate) and candidate.suffix in extensions:
            return PathResolver(cwd)(arg)
    return None


class DiffBackend:
    """Snapshot the watched roots before (on construction) and after the
    child; the events are the differences, with no order within the run."""

    trace_order = False

    def __init__(self, scratch: Path, roots: list[Path], config: RunConfig) -> None:
        self.excludes = {root: exclusion_patterns(config, root, roots) for root in roots}
        self.stamp_prefix = f"{config.provenance_directory}_stamp-"
        self.indexes = index_directory(roots)
        # The before-snapshot starts from the last run's after-snapshot, so
        # only the files changed since are read; the after-snapshots are
        # stamped too, so the files the child wrote can be reused next time.
        self.before = {
            root: take_snapshot(
                root,
                patterns,
                previous=None
                if self.indexes is None
                else load_snapshot(index_file(self.indexes, root), root),
                stamp_prefix=self.stamp_prefix,
            )
            for root, patterns in self.excludes.items()
        }

    def spawn_argv(self, command: list[str]) -> list[str]:
        return command

    def collect(self, control_path: Path) -> tuple[list[FileEvent], list[Snapshot]]:
        events, snapshots = [], []
        for root, patterns in self.excludes.items():
            after = take_snapshot(
                root, patterns, previous=self.before[root], stamp_prefix=self.stamp_prefix
            )
            snapshots.append(after)
            events.extend(diff_snapshots(self.before[root], after))
        if self.indexes is not None:
            save_indexes(self.indexes, snapshots)
        return events, snapshots


class TraceBackend:
    """Run the child under strace; the events are its opens in run order, kept inside
    the watched roots (the rest enters only via the control channel) or of the control file."""

    trace_order = True

    def __init__(self, scratch: Path, roots: list[Path], config: RunConfig) -> None:
        self.trace_path = scratch / "trace"
        self.roots = roots  # watched_roots lists the working directory first
        self.locate = locate(roots)
        self.stamp_prefix = f"{config.provenance_directory}_stamp-"

    def spawn_argv(self, command: list[str]) -> list[str]:
        return ["strace", *_STRACE_ARGS, "-o", str(self.trace_path), *command]

    def collect(self, control_path: Path) -> tuple[list[FileEvent], list[Snapshot]]:
        # One stamp per root, made after the child exits and before classify
        # stats and hashes a file, so it vouches for those digests' copies.
        stamped = [
            Snapshot(root, {}, _stamp_ctime_ns(root, self.stamp_prefix)) for root in self.roots
        ]
        with open(self.trace_path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            events = parse_trace_stream(handle, cwd=self.roots[0])
        return [e for e in events if e.path == control_path or self.locate(e.path)], stamped


def select_backend(choice: str) -> type[DiffBackend | TraceBackend]:
    """Return the class of a `--backend` choice; auto is trace where strace runs, else diff."""
    if choice == "auto":
        choice = "trace" if sys.platform.startswith("linux") and shutil.which("strace") else "diff"
    return TraceBackend if choice == "trace" else DiffBackend


@dataclasses.dataclass
class RunResult:
    """One outcome per segment: its published bundle directory, or the error
    that cost it; a failure before the segments are known is the run's one outcome."""

    outcomes: list[Path | Exception]


class Capture:
    """One run's provenance: construction does the work before the child
    (entry script, watched roots, control file, backend), `finish` the rest."""

    def __init__(self, config: RunConfig, backend: str, scratch: Path, command: list[str]) -> None:
        self.config = config
        self.cwd = Path.cwd().resolve()
        self.entry_script = detect_entry_script(command, self.cwd, config.source_extensions)
        self.roots = watched_roots(config, self.cwd)
        # in the form the trace parser gives its open: directory resolved
        self.control_path = scratch.resolve() / "control"
        self.control_path.touch()
        self.backend = select_backend(backend)(scratch, self.roots, config)

    def finish(self, meta: RunMetadata) -> RunResult:
        """Collect, read the control file, unify, classify, then write one bundle per segment."""
        outcomes: list[Path | Exception] = []

        def lost(exc: Exception, segment: str = "") -> None:
            print(f"provwrap: provenance capture failed: {segment}{exc}", file=sys.stderr)
            outcomes.append(exc)

        try:
            events, snapshots = self.backend.collect(self.control_path)
            # universal newlines; undecodable bytes reach the parser, which rejects their line
            text = self.control_path.read_text(encoding="utf-8", errors="surrogateescape")
            directives = parse_control_stream(text.split("\n"))

            timeline = unify_timeline(
                events,
                directives,
                self.control_path,
                trace_order=self.backend.trace_order,
                cwd=self.cwd,
            )
            segments = classify(
                timeline,
                self.config,
                self.cwd,
                entry_script=self.entry_script,
                snapshots=snapshots,
                roots=self.roots,
            )
        except Exception as exc:  # the run: no segment is known, so no bundle
            lost(exc)
            segments = []

        links: dict[tuple[str, int], Path] = {}  # this run's published, verified copies
        next_k = 0  # every prov_k below it is taken
        for position, segment in enumerate(segments, 1):
            bundle_dir = None
            try:
                bundle_dir = allocate_run_dir(self.config.provenance_directory, self.cwd, next_k)
                report = write_bundle(segment, meta, self.config, bundle_dir, links=links)
            except Exception as exc:  # this bundle only: its number goes to the next segment
                if bundle_dir is not None:
                    with contextlib.suppress(OSError):  # not empty: not the reservation
                        bundle_dir.rmdir()
                lost(exc, f"segment {segment.name!r} ({position} of {len(segments)}): ")
                continue
            next_k = int(bundle_dir.name.rsplit("_", 1)[1]) + 1
            for message in (*segment.errors, *report.warnings):
                log.warning("%s", message)
            log.debug(
                "bundle %s: %d files, %d bytes copied",
                bundle_dir,
                len(report.files_written),
                report.bytes_copied,
            )
            outcomes.append(bundle_dir)
        return RunResult(outcomes)


def run(argv: list[str]) -> int:
    """Parse argv, run the child inside a `Capture`, and return the exit code."""
    if "--" not in argv:
        print(
            "usage: provwrap [flags] -- COMMAND [ARG...]  (the `--` separator "
            "is required)",
            file=sys.stderr,
        )
        return USAGE_EXIT
    split = argv.index("--")
    flag_args, command = argv[:split], argv[split + 1 :]
    if not command:
        print("error: no command given after `--`", file=sys.stderr)
        return USAGE_EXIT

    try:
        args = build_arg_parser().parse_args(flag_args)
        config = config_from_args(args)
    except SystemExit:
        return USAGE_EXIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT

    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="provwrap: %(levelname)s: %(message)s",
    )

    with tempfile.TemporaryDirectory(prefix="provwrap-") as scratch:
        capture = Capture(config, args.backend, Path(scratch), command)
        spawn_argv = capture.backend.spawn_argv(command)
        try:
            meta = capture_run(
                command,
                {"YPROV_CONTROL": str(capture.control_path)},
                spawn_argv=spawn_argv,
            )
        except OSError as exc:
            print(f"error: cannot run {spawn_argv[0]!r}: {exc}", file=sys.stderr)
            return SPAWN_EXIT
        result = capture.finish(meta)

    # the exit-code policy: the child's status, else 3 for any lost bundle
    lost = any(isinstance(outcome, Exception) for outcome in result.outcomes)
    if lost and meta.exit_status != 0:
        print(
            f"provwrap: wrapped command had exited with status {meta.exit_status}",
            file=sys.stderr,
        )
    return meta.exit_status or (PROVENANCE_EXIT if lost else 0)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
