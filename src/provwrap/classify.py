"""Merging observed events and directives into categorized artifact records.

Records land in one of three bundle sub-trees (inputs/, outputs/, src/)
mirroring their location relative to the working directory; END_RUN
directives split the merged timeline into consecutive segments, one bundle
each.
"""

from __future__ import annotations

import glob
import logging
import os
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .monitor import (
    ControlDirective,
    CopyProof,
    DirectiveKind,
    EventKind,
    FileEvent,
    PathResolver,
    Snapshot,
    matches_exclusion,
    sha256_file,
)

log = logging.getLogger(__name__)

MEGABYTE = 1_000_000  # decimal MB

DEFAULT_EXCLUDES = (".git", "*/.git", "*__pycache__*", "*.pyc")


class Category(Enum):
    INPUT = "Input"
    OUTPUT = "Output"
    SOURCE = "Source"
    ENVIRONMENT = "Environment"


class LoggedBy(Enum):
    AUTO = "auto"
    USER = "user"


class InputCopies(Enum):
    """Which inputs a bundle copies; any value but FULL's is the skip reason."""

    FULL = "full"
    SUBSET = "subset_mode"
    NONE = "not_saved"


@dataclass
class RunConfig:
    """Full configuration surface of one wrapped run."""

    run_name: str = "experiment_run"
    provenance_directory: str = "prov"
    prefix: str = "yProv4DA"
    default_namespace: str = "http://example.org/"
    create_json_file: bool = False
    create_dot_file: bool = False
    create_svg_file: bool = False
    create_rocrate: bool = True
    input_copies: InputCopies = InputCopies.FULL
    skip_files_larger_than: int = 50
    source_extensions: frozenset[str] = frozenset({".py"})
    source_roots: tuple[str, ...] = ()
    watch_dirs: tuple[Path, ...] = ()
    excludes: tuple[str, ...] = DEFAULT_EXCLUDES

    def __post_init__(self) -> None:
        if self.skip_files_larger_than <= 0:
            raise ValueError("skip_files_larger_than must be positive")
        if not self.run_name:
            raise ValueError("run_name must be non-empty")
        if not self.prefix or ":" in self.prefix:
            raise ValueError("prefix must be non-empty and hold no colon")
        directory = self.provenance_directory
        if not directory or directory.startswith("/") or "/" in directory or "\\" in directory:
            raise ValueError(
                "provenance_directory must be a single relative path component"
            )


@dataclass
class ArtifactRecord:
    """A classified artifact, ready for provenance and packaging."""

    original_path: Path
    bundle_relative_path: str
    category: Category
    also_generated: bool = False
    logged_by: LoggedBy = LoggedBy.AUTO
    sha256: str | None = None
    size_bytes: int | None = None
    copied: bool = True
    skip_reason: str | None = None
    # (entry, stamp_ns) from Snapshot.copy_proof when sha256 is this
    # run's digest of the file; write_bundle's alone, never in a document
    proof: CopyProof | None = field(default=None, compare=False, repr=False)


@dataclass
class RunSegment:
    """One END_RUN-delimited slice of the timeline."""

    name: str
    records: list[ArtifactRecord] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def apply_size_threshold(record: ArtifactRecord, limit_mb: int) -> ArtifactRecord:
    """Mark records above the copy limit as metadata-only.

    The digest is kept so the entity remains identifiable even when the
    file itself is not copied into the bundle.
    """
    if record.size_bytes is None:
        raise ValueError("size_bytes must be populated before thresholding")
    if record.size_bytes > limit_mb * MEGABYTE:
        return replace(record, copied=False, skip_reason="size_threshold")
    return record


@dataclass
class _PathState:
    read_seen: bool = False
    write_seen: bool = False
    user_logged: bool = False
    untracked: bool = False


def directive_path(directive: ControlDirective, resolve: PathResolver) -> Path | None:
    """Return the path a directive names, by resolve, or None if it names none.

    END_RUN names no path, and a path holding TAB or LF is ignored: the
    control format cannot carry it; nor NUL, which no file name holds.
    resolve takes it from the working directory.
    """
    raw = directive.path
    if directive.kind is DirectiveKind.END_RUN or "\t" in raw or "\n" in raw or "\0" in raw:
        return None
    return resolve(raw)


def exclusion_patterns(
    config: RunConfig, root: Path | None = None, roots: Iterable[Path] = ()
) -> tuple[str, ...]:
    """Return the configured exclusions plus `<dir>_*` (bundles, stamps).

    For root's snapshot, also each other of roots below it: that root's own
    snapshot covers it, excluding the `<dir>_*` entries at its top.
    """
    patterns = tuple(config.excludes) + (f"{config.provenance_directory}_*",)
    if root is None:
        return patterns
    below = (other.relative_to(root).as_posix() for other in roots if root in other.parents)
    return patterns + tuple(glob.escape(rel) for rel in below)


def watched_roots(config: RunConfig, cwd: Path) -> list[Path]:
    """Return cwd and each watch directory that exists (taken from cwd), resolved.

    A watch directory that does not exist or cannot be read is skipped with
    a warning. One at or under a root already listed is left out: that
    root's snapshot already covers it, so no file is snapshotted twice.
    """
    roots = [cwd]
    for extra in config.watch_dirs:
        extra = (cwd / extra).resolve()
        if not os.path.isdir(extra):
            log.warning("watch directory does not exist or cannot be read, skipping: %s", extra)
        elif locate(roots)(extra) is None:
            roots.append(extra)
    return roots


def locate(roots: Iterable[Path]) -> Callable[[Path], tuple[Path, str] | None]:
    """Return a lookup: a resolved path's innermost holding root among roots
    (roots nest with `--watch ..`; the inner one's snapshot lists the path)
    and its name there ("." for the root), or None outside every root. By
    string prefix, equivalent to `path == root or root in path.parents`."""
    # descending: of two roots holding a path, the inner one is the longer prefix
    prefixes = sorted(((str(root).rstrip("/") + "/", root) for root in roots), reverse=True)

    def find(path: Path) -> tuple[Path, str] | None:
        text = str(path) + "/"
        for prefix, root in prefixes:
            if text.startswith(prefix):
                return root, text[len(prefix):-1] or "."
        return None

    return find


_Measured = tuple[int | None, str | None, CopyProof | None]  # size, sha256, proof


def _record(
    path: Path,
    st: _PathState,
    config: RunConfig,
    rel: str | None,
    entry_script: Path | None,
    measured: _Measured,
) -> ArtifactRecord:
    """Build path's record: its category, bundle path and copy decision.

    rel is path's name in the working directory, None outside it. Every
    copy decision made at classify time is made here: a file without a
    digest (gone or unreadable after the run) is `vanished`, an input
    follows `config.input_copies`, and any other file above the size limit
    is metadata-only.
    """
    if rel == "requirements.txt":
        category = Category.ENVIRONMENT
    elif path == entry_script or st.read_seen and (
        path.suffix in config.source_extensions
        or config.source_roots
        and matches_exclusion(rel or str(path), config.source_roots)
    ):
        category = Category.SOURCE
    elif st.read_seen:
        category = Category.INPUT
    else:
        category = Category.OUTPUT
    if rel is None:
        # beside inputs/, outputs/ and src/, where no working-directory path lands
        bundle_path = "_external" + str(path)
    else:
        top = {Category.OUTPUT: "outputs", Category.SOURCE: "src"}.get(category, "inputs")
        bundle_path = f"{top}/{rel}"
    size, sha256, proof = measured
    record = ArtifactRecord(
        original_path=path,
        bundle_relative_path=bundle_path,
        category=category,
        also_generated=st.write_seen and category is not Category.OUTPUT,
        logged_by=LoggedBy.USER if st.user_logged else LoggedBy.AUTO,
        sha256=sha256,
        size_bytes=size,
        proof=proof,
    )
    if sha256 is None:
        record.copied = False
        record.skip_reason = "vanished"
    elif category is Category.INPUT and config.input_copies is not InputCopies.FULL:
        record.copied = False
        record.skip_reason = config.input_copies.value
    else:
        record = apply_size_threshold(record, config.skip_files_larger_than)
    return record


def unify_timeline(
    events: Sequence[FileEvent],
    directives: Sequence[ControlDirective],
    control_path: Path | None,
    trace_order: bool,
    cwd: Path | None = None,
) -> list[FileEvent | ControlDirective]:
    """Return events and directives as one list, in the order `classify` walks.

    Trace events are in run order and keep it. Each open of control_path is
    dropped, and the directives of control line i (their index) go where
    the i-th open was, a later line's where the last open was, in list
    order; with no open, every directive goes last.

    Snapshot diffs have no order within the run, so directives keep their
    list order, and each event goes right after the first directive naming
    its path (per `directive_path`, so it lands in that directive's
    segment), in list order; an event no directive names goes last.
    """
    # groups[k]: the items put at the k-th event (trace) or directive (diff); groups[-1]: the rest
    if trace_order:  # an open of control_path leaves an empty group, for its directives
        groups: list[list] = [[] if e.path == control_path else [e] for e in events] + [[]]
        opens = [k for k, group in enumerate(groups[:-1]) if not group]
        for directive in directives:
            groups[opens[min(directive.index, len(opens) - 1)] if opens else -1].append(directive)
    else:
        resolve = PathResolver(Path.cwd() if cwd is None else Path(cwd))
        groups = [[directive] for directive in directives] + [[]]
        mentioned: dict[Path, int] = {}
        for index, directive in enumerate(directives):
            path = directive_path(directive, resolve)
            if path is not None:
                mentioned.setdefault(path, index)
        for event in events:
            groups[mentioned.get(event.path, -1)].append(event)
    return [item for group in groups for item in group]


def classify(
    timeline: Sequence[FileEvent | ControlDirective],
    config: RunConfig,
    cwd: Path,
    entry_script: Path | None = None,
    snapshots: Sequence[Snapshot] = (),
    roots: Sequence[Path] | None = None,
) -> list[RunSegment]:
    """Partition the timeline into segments of classified records.

    The timeline is walked in the order given, `unify_timeline`'s, and split
    at each END_RUN; a trailing implicit segment always exists.
    Within a segment, a path both read and created collapses into a single
    Input record flagged also_generated; UNTRACK anywhere in a segment
    removes that path's record entirely, and an UNTRACK in a later segment
    downgrades earlier copies of the path to metadata-only. A path that
    exists after the run but is not a regular file (a directory, FIFO or
    device) gives no record, with an error when a directive logged it; an
    INPUT or OUTPUT directive whose path does not exist, and that no event
    names, gives no record and an error: it names no file the run touched.

    A `PathResolver` takes directive paths and the entry script from cwd.
    Once per call, `locate` places each distinct path in its innermost root
    of roots (`watched_roots(config, cwd)` when None); it is excluded when
    its name there, or outside every root its absolute path, matches
    `exclusion_patterns(config)`, as in that root's snapshot walk, and a
    file that root's snapshot lists takes size, sha256 and proof
    (`Snapshot.copy_proof`) from its entry. Any other is stat'ed and hashed
    now, and its proof is that stat and its root snapshot's stamp, made
    before this call (the trace backend's snapshots are stamps with no
    entries); without a stamp it has none. A path that cannot be encoded
    as UTF-8 gives no record: the provenance formats are UTF-8 text, so
    its segment gets an error.
    """
    cwd = Path(cwd)
    if not cwd.is_absolute():
        raise ValueError("cwd must be an absolute path")
    cwd = cwd.resolve()
    resolve = PathResolver(cwd)
    if entry_script is not None:
        entry_script = resolve(entry_script)

    find = locate(watched_roots(config, cwd) if roots is None else roots)
    patterns = exclusion_patterns(config)
    scoped: dict[Path, tuple] = {}  # this call's (locate's answer, excluded) per path

    def scope(path: Path) -> tuple[tuple[Path, str] | None, bool]:
        if path not in scoped:
            place = find(path)
            scoped[path] = place, matches_exclusion(place[1] if place else str(path), patterns)
        return scoped[path]

    listed = {snapshot.root: snapshot for snapshot in snapshots}
    named = {item.path for item in timeline if isinstance(item, FileEvent)}
    # this call's (size, sha256, copy proof) per path; no sha256 when it is
    # gone or unreadable, and None when it exists but is not a regular file
    measured: dict[Path, _Measured | None] = {}

    def measure(path: Path) -> _Measured | None:
        # Every record is measured after the child has exited, so one
        # answer per path serves all of its records.
        if path not in measured:
            root, rel = scope(path)[0] or (None, "")
            snapshot = listed.get(root)
            entry = None if snapshot is None else snapshot.entries.get(rel)
            if entry is not None:
                # hashed (or reused) by the after-snapshot; write_bundle
                # checks the copy against it, or, with a proof, the
                # source's stat, so a later change is caught
                measured[path] = entry[0], entry[2], snapshot.copy_proof(rel)
            elif not os.path.isfile(path):  # os.path answers False where stat fails
                measured[path] = None if os.path.exists(path) else (None, None, None)
            else:
                size = None
                try:
                    st = path.stat()  # after the snapshot's stamp, before the hash
                    size = st.st_size
                    entry = (size, st.st_mtime, sha256_file(path), st.st_ctime_ns, st.st_ino)
                    stamp_ns = None if snapshot is None else snapshot.stamp_ns
                    proof = None if stamp_ns is None else (entry, stamp_ns)
                    measured[path] = (size, entry[2], proof)
                except OSError as exc:
                    log.warning("could not hash %s: %s", path, exc)
                    measured[path] = (size, None, None)
        return measured[path]

    # The entry script and a top-level requirements.txt are recorded in
    # every segment (unless untracked): each bundle must be re-executable
    # on its own, and the diff backend cannot observe reads.
    forced = [entry_script] if entry_script is not None else []
    requirements = cwd / "requirements.txt"
    if requirements.is_file():
        forced.append(requirements)

    segments: list[RunSegment] = []
    states: dict[Path, _PathState] = {}  # this segment's paths, first mention first
    errors: list[str] = []
    # None closes the last segment, which exists even when it is empty
    for item in [*timeline, None]:
        if isinstance(item, FileEvent):
            if scope(item.path)[1]:
                continue
            st = states.setdefault(item.path, _PathState())
            if item.kind is EventKind.READ_INTENT:
                st.read_seen = True
            elif item.kind is EventKind.REMOVED:
                st.write_seen = False  # transient file: discard pending output
            else:
                st.write_seen = True
        elif item is not None and item.kind is not DirectiveKind.END_RUN:
            path = directive_path(item, resolve)
            if path is None:
                errors.append(
                    f"directive path contains TAB/LF/NUL and was ignored: {item.path!r}"
                )
            elif scope(path)[1]:
                continue
            elif item.kind is DirectiveKind.UNTRACK:
                states.setdefault(path, _PathState()).untracked = True
            elif path not in named and not os.path.exists(path):
                errors.append(f"directive path does not exist or cannot be read: {item.path!r}")
            else:
                st = states.setdefault(path, _PathState())
                st.user_logged = True
                if item.kind is DirectiveKind.INPUT:
                    st.read_seen = True
                else:
                    st.write_seen = True
        else:
            # END_RUN or the end of the timeline: records follow first
            # mention, then each forced path not recorded nor untracked.
            paths = [path for path, st in states.items() if st.read_seen or st.write_seen]
            paths += [path for path in forced if path not in paths and not scope(path)[1]]
            records: list[ArtifactRecord] = []
            for path in paths:
                st = states.get(path) or _PathState()
                if st.untracked:
                    continue
                try:
                    str(path).encode("utf-8")
                except UnicodeEncodeError:
                    errors.append(
                        f"path is not valid UTF-8 and was not recorded: {str(path)!r}"
                    )
                    continue
                size_and_digest = measure(path)
                root, rel = scope(path)[0] or (None, None)
                rel = rel if root == cwd else None
                if size_and_digest is None:
                    if st.user_logged:
                        shown = rel or str(path)
                        errors.append(f"directive path is not a regular file: {shown!r}")
                    continue
                records.append(_record(path, st, config, rel, entry_script, size_and_digest))
            # Late UNTRACK: this segment's untracks downgrade matching records
            # that earlier segments produced (they stay in provenance but are
            # not copied).
            untracked = {path for path, st in states.items() if st.untracked}
            for earlier in segments:
                for record in earlier.records:
                    if record.original_path in untracked and record.copied:
                        record.copied = False
                        record.skip_reason = "untracked_late"
            index = len(segments)
            name = item.run_name if item is not None else None
            if not name:
                name = config.run_name if index == 0 else f"{config.run_name}_{index}"
            while any(segment.name == name for segment in segments):
                name = f"{name}_{index}"
            segments.append(RunSegment(name=name, records=records, errors=errors))
            states, errors = {}, []

    return segments
