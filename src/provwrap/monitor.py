"""Observation of file activity around the wrapped command.

Three independent sources feed classification: recursive content-hashed
directory snapshots taken before and after the run, an optional syscall
trace transcript, and the line-oriented control-channel file the child can
append to (addressed via the YPROV_CONTROL environment variable).
"""

from __future__ import annotations

import errno
import fnmatch
import functools
import hashlib
import io
import itertools
import json
import logging
import os
import re
import tempfile
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from pathlib import Path
from stat import S_ISREG
from typing import BinaryIO, Callable, Iterable, Sequence

from .errors import ControlParseError, TraceParseError

log = logging.getLogger(__name__)

_HASH_CHUNK = 1 << 19  # bytes per read; hashlib releases the GIL on each one
_HASH_THREAD_FROM = 4 * _HASH_CHUNK  # a larger file is hashed on a second thread


def sha256_file(source: str | os.PathLike[str] | int, copy_to: Path | None = None) -> str:
    """Return the sha256 of a regular file's bytes, read from offset 0 to its end.

    source is a path, opened non-blocking (a FIFO in its place cannot stall
    the call), or a descriptor, whose offset is not moved. Anything but a
    regular file raises OSError. With copy_to, each chunk hashed is also
    written there, so the digest vouches for the copy without a read-back.
    A file of more than _HASH_THREAD_FROM bytes is hashed on a worker
    thread while this one reads the next chunk and writes the last; the
    worker is joined before the call returns or raises, and an error in
    either thread ends both.
    """
    fd = source if isinstance(source, int) else os.open(source, os.O_RDONLY | os.O_NONBLOCK)
    try:
        st = os.fstat(fd)
        if not S_ISREG(st.st_mode):
            raise OSError(errno.EINVAL, "not a regular file", source)
        with nullcontext() if copy_to is None else open(copy_to, "wb") as out:
            write = None if out is None else out.write
            if st.st_size > _HASH_THREAD_FROM:
                return _sha256_on_a_second_thread(fd, write)
            digest = hashlib.sha256()
            # one read for a small file; a file that grows meanwhile is read to its end
            step = min(max(st.st_size, io.DEFAULT_BUFFER_SIZE), _HASH_CHUNK)
            offset = 0
            while chunk := os.pread(fd, step, offset):
                digest.update(chunk)
                if write is not None:
                    write(chunk)
                offset += len(chunk)
            return digest.hexdigest()
    finally:
        if not isinstance(source, int):
            os.close(fd)


def _sha256_on_a_second_thread(fd: int, write: Callable[[memoryview], object] | None) -> str:
    digest, failed = hashlib.sha256(), []
    buffers = [memoryview(bytearray(_HASH_CHUNK)) for _ in range(2)]
    lengths: deque[int] = deque()  # of the chunks in buffers[i % 2], in order; 0 stops
    filled, hashed = threading.Semaphore(0), threading.Semaphore(len(buffers))

    def hash_chunks() -> None:
        try:
            for i in itertools.count():
                filled.acquire()
                if not (length := lengths.popleft()):
                    return
                digest.update(buffers[i % 2][:length])
                hashed.release()
        except BaseException as exc:
            failed.append(exc)
            hashed.release()

    worker = threading.Thread(target=hash_chunks, name="provwrap-sha256")
    worker.start()
    try:
        offset = 0
        for i in itertools.count():
            hashed.acquire()  # buffers[i % 2] is free once chunk i - 2 is hashed
            if failed or not (length := os.preadv(fd, [buffers[i % 2]], offset)):
                break
            lengths.append(length)
            filled.release()
            if write is not None:
                write(buffers[i % 2][:length])  # while the worker hashes the same bytes
            offset += length
    finally:
        lengths.append(0)
        filled.release()
        worker.join()
    if failed:
        raise failed[0]
    return digest.hexdigest()


def _glob_regex(pattern: str) -> str:
    """fnmatch's regex text for pattern without its end anchor, so it can
    match a prefix; checked, since the anchor's spelling varies by version."""
    text = fnmatch.translate(pattern)
    if not (text.startswith("(?s:") and text.endswith((")\\Z", ")\\z"))):
        raise RuntimeError(f"unexpected fnmatch translation of {pattern!r}: {text!r}")
    return text[:-2]


@functools.lru_cache(maxsize=64)
def _exclusion_regex(patterns: tuple[str, ...]) -> re.Pattern[str]:
    """Matcher of "a pattern matches the path or one of its ancestors": a
    prefix matches and is the whole path or ends before a "/" that is not
    the first character, so an empty pattern never matches an absolute path
    through the empty text before its leading "/"."""
    globs = "(?:" + "|".join(_glob_regex(pattern) for pattern in patterns) + ")"
    return re.compile(globs + r"(?:\Z|(?<=.)/)", re.DOTALL)


def matches_exclusion(rel_path: str, patterns: Sequence[str]) -> bool:
    """True when rel_path or any of its ancestor directories matches a glob.

    rel_path is a normalized name, or ".": no empty, "." or ".." component
    and no trailing "/", and an absolute path keeps its single leading "/".
    A snapshot walk and `classify.locate` build names that way. Its
    ancestors are then its prefixes that end before a "/", so one regex
    match tests the name and all of them.
    """
    return bool(patterns) and _exclusion_regex(tuple(patterns)).match(rel_path) is not None


class EventKind(Enum):
    READ_INTENT = "ReadIntent"
    WRITE_INTENT = "WriteIntent"
    CREATED = "Created"
    MODIFIED = "Modified"
    REMOVED = "Removed"


@dataclass(frozen=True)
class FileEvent:
    """One observed filesystem fact."""

    path: Path
    kind: EventKind
    pid: int | None = None


Entry = tuple[int, float, str, int, int]
"""(size, mtime, sha256, st_ctime_ns, st_ino) of one file, stat'ed before hashing."""


class IndexEntry(tuple):
    """An Entry read from a digest index, not hashed by this process; equal to its tuple."""

    __slots__ = ()


CopyProof = tuple[Entry, int]
"""An entry and stamp_ns: what unchanged_since takes after the stat."""


@dataclass(frozen=True)
class Snapshot:
    """Recursive listing of regular files under root.

    entries maps each relative path to its Entry, and stamp_ns is the ctime
    of a stamp file created in root just before the walk (None when there
    was none). An entry's stat fields and stamp_ns only decide, by
    unchanged_since, whether a later snapshot of the same root may reuse a
    digest; a snapshot without a stamp lends none. An entry built by
    load_snapshot is an IndexEntry, and a later snapshot that reuses it
    shares the object, so it keeps that mark.
    """

    root: Path
    entries: dict[str, Entry]
    stamp_ns: int | None = None

    def copy_proof(self, rel: str) -> CopyProof | None:
        """Return rel's (entry, stamp_ns) for unchanged_since, or None.

        With them, a stat of rel taken later in this process tells whether
        the file still holds the bytes its digest was computed from. None
        when the entry is an IndexEntry or the snapshot has no stamp: then
        nothing vouches for it, and a copy must be read to be checked.
        """
        entry = self.entries[rel]
        if self.stamp_ns is None or isinstance(entry, IndexEntry):
            return None
        return entry, self.stamp_ns


def unchanged_since(st: os.stat_result, entry: Entry | None, stamp_ns: int | None) -> bool:
    """True when st is still the file an earlier stat recorded as entry, so
    that entry's digest may be reused.

    Size, mtime and (st_ctime_ns, st_ino) must be unchanged, and the ctime
    strictly older than stamp_ns, the ctime of a stamp file made before the
    stat that recorded entry: one filesystem clock, as in git's "racily
    clean" rule. A change in the stamp's own tick can leave every stat
    field equal, so a tie is never trusted; without a stamp, nothing is.
    """
    return (
        stamp_ns is not None
        and entry is not None
        and st.st_ctime_ns < stamp_ns
        and entry[3:] == (st.st_ctime_ns, st.st_ino)
        and entry[:2] == (st.st_size, st.st_mtime)
    )


STAMP_WAIT_S = 0.02  # a coarse kernel clock's tick; a filesystem's 1-2 s tick is not waited out


def _stamp_ctime_ns(root: Path, prefix: str) -> int | None:
    """ctime of a file created in root and removed at once; None if root is not writable.

    A write just before it may share its ctime tick, and a tie is never
    trusted, so its ctime is set to now until it passes the first one, for
    at most STAMP_WAIT_S; every earlier write is then strictly older.
    """
    try:
        fd, name = tempfile.mkstemp(prefix=prefix, dir=root)
    except OSError as exc:
        log.debug("no ctime stamp in %s, so no digest of it is reused: %s", root, exc)
        return None
    try:
        first = stamp = os.fstat(fd).st_ctime_ns
        deadline = time.monotonic() + STAMP_WAIT_S
        while stamp <= first and time.monotonic() < deadline:
            os.utime(fd)
            stamp = os.fstat(fd).st_ctime_ns
        return max(stamp, first)
    finally:
        os.close(fd)
        os.unlink(name)


def take_snapshot(
    root: Path,
    excludes: Sequence[str] = (),
    previous: Snapshot | None = None,
    stamp_prefix: str | None = None,
) -> Snapshot:
    """Hash every regular file under root, skipping exclusion matches.

    Each directory is listed once, by os.scandir. The keys come in walk
    order: a directory's files by name, then each subdirectory's, depth
    first, by name. Each listed entry is tested once with matches_exclusion,
    which covers its ancestors too; an excluded directory is not listed, and
    a file is stat'ed once, through its directory entry.

    Given previous, an earlier snapshot of the same root, a file keeps its
    previous digest without being read again when unchanged_since holds for
    it and previous.stamp_ns; every other file is hashed, and every file is
    when previous has no stamp. A file written just before the earlier
    snapshot is reusable as soon as its ctime tick has passed.

    With stamp_prefix, the stamp is a file named stamp_prefix + a random
    suffix, created in root before the walk and unlinked at once; pick a
    prefix the excludes match, so a concurrent walk skips it. When root is
    not writable the snapshot has no stamp, and the next snapshot reads
    every file again. Unreadable files are skipped with a warning; dangling
    symlinks, symlink loops, files or directories removed during the walk,
    unreadable directories, fifos, sockets and devices silently; none aborts
    the snapshot. A symlinked file is listed by its own name; a symlinked
    directory is not followed.
    previous may be an earlier run's snapshot, saved with save_snapshot and
    read back with load_snapshot: the same rule decides every reuse, and a
    reused entry is previous's own object.
    """
    root = Path(root).resolve()
    if not root.is_dir():
        raise NotADirectoryError(f"snapshot root is not a directory: {root}")
    if previous is None:
        previous = Snapshot(root=root, entries={})  # no stamp: nothing reused
    elif previous.root != root:
        raise ValueError(f"snapshot roots differ: {previous.root} vs {root}")
    stamp_ns = None if stamp_prefix is None else _stamp_ctime_ns(root, stamp_prefix)
    entries: dict[str, Entry] = {}
    pending = [(str(root), "")]  # directories to list, the next one last
    while pending:
        directory, prefix = pending.pop()
        try:
            with os.scandir(directory) as listing:
                # reversed, so popping takes them in name order and frees
                # each entry, with its cached stat, as soon as it is done
                listed = sorted(listing, key=attrgetter("name"), reverse=True)
        except OSError:
            continue  # unreadable, or removed during the walk
        below = []
        while listed:
            item = listed.pop()
            rel = prefix + item.name
            if matches_exclusion(rel, excludes):
                continue
            try:
                if item.is_dir():
                    if not item.is_symlink():
                        below.append((item.path, rel + "/"))
                    continue
                st = item.stat()
                if not S_ISREG(st.st_mode):
                    continue  # fifos, sockets, devices
                entry = previous.entries.get(rel)
                # share the previous object: an unchanged file costs no memory
                if not unchanged_since(st, entry, previous.stamp_ns):
                    digest = sha256_file(Path(item.path))
                    entry = (st.st_size, st.st_mtime, digest, st.st_ctime_ns, st.st_ino)
                entries[rel] = entry
            except OSError as exc:
                # a dangling symlink, a symlink loop or a file removed during the walk
                if exc.errno not in (errno.ENOENT, errno.ELOOP):
                    log.warning("snapshot skipping unreadable file %s: %s", item.path, exc)
        pending.extend(reversed(below))  # a directory's files, then its subdirectories'
    return Snapshot(root=root, entries=entries, stamp_ns=stamp_ns)


INDEX_FORMAT = "provwrap-snapshot-index"
INDEX_VERSION = 2
_INDEX_END = b"end\t"
_INDEX_HEADER_LIMIT = 1 << 20  # bytes; a real header holds one path
_REL_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


class _BadIndex(Exception):
    """A corrupt or truncated index file; the message says which."""


def save_snapshot(snapshot: Snapshot, path: Path) -> None:
    """Write snapshot to path as a digest index that load_snapshot reads back.

    The file is LF-terminated lines of UTF-8 with surrogate escapes, so
    file names with undecodable bytes keep their bytes:

    - a JSON header: format, version, root, the root's st_dev and st_ino,
      and stamp_ns;
    - one line per entry: size, mtime (its repr), ctime_ns, ino, sha256 and
      the relative path, TAB-separated; the path comes last, so a TAB in it
      needs no escape, and a backslash or LF in it is written as \\\\ or \\n;
    - "end", TAB, and the sha256 of every byte before that line.

    The file is written under a temporary name in path's directory and
    renamed over path, so a reader sees the old index or the new one, never
    a mix; no lock is taken. Raises OSError, or UnicodeEncodeError for a
    path that no file system name decodes to.
    """
    path = Path(path)
    root_stat = os.stat(snapshot.root)
    header = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "root": str(snapshot.root),
        "dev": root_stat.st_dev,
        "ino": root_stat.st_ino,
        "stamp_ns": snapshot.stamp_ns,
    }
    fd, temp = tempfile.mkstemp(prefix=f"{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with open(fd, "wb") as handle:
            digest = hashlib.sha256()

            def put(text: str) -> None:
                data = text.encode("utf-8", errors="surrogateescape")
                digest.update(data)
                handle.write(data)

            put(json.dumps(header) + "\n")
            for rel, (size, mtime, sha256, ctime_ns, ino) in snapshot.entries.items():
                rel = rel.replace("\\", "\\\\").replace("\n", "\\n")
                put(f"{size}\t{mtime!r}\t{ctime_ns}\t{ino}\t{sha256}\t{rel}\n")
            handle.write(_INDEX_END + digest.hexdigest().encode("ascii") + b"\n")
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def load_snapshot(path: Path, root: Path) -> Snapshot | None:
    """Read the digest index save_snapshot wrote for root; None if unusable.

    The file is streamed: entries are built as lines are read, and the
    trailing checksum is checked before they are returned. A missing file
    gives None silently. An unreadable file, another format version, or an
    index of another directory (another path, or the same path with another
    st_dev/st_ino, i.e. a directory made anew) gives None with a debug log;
    a corrupt or truncated file gives None with a warning. With None, the
    caller takes a cold snapshot: every file is hashed. Every entry of the
    snapshot returned is an IndexEntry.
    """
    root = Path(root).resolve()
    try:
        # non-blocking, so a FIFO in its place cannot stall the run
        with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb") as handle:
            if not S_ISREG(os.fstat(handle.fileno()).st_mode):
                log.debug("digest index %s is not a regular file", path)
                return None
            return _read_index(handle, root, path)
    except FileNotFoundError:
        return None
    except _BadIndex as exc:
        log.warning("ignoring digest index %s: %s", path, exc)
    except OSError as exc:
        log.debug("digest index %s not read: %s", path, exc)
    return None


def _read_index(handle: BinaryIO, root: Path, path: Path) -> Snapshot | None:
    digest = hashlib.sha256()
    line = handle.readline(_INDEX_HEADER_LIMIT)
    if not line.endswith(b"\n"):
        cut = len(line) < _INDEX_HEADER_LIMIT
        raise _BadIndex("truncated header" if cut else "corrupt: header too long")
    digest.update(line)
    try:
        header = json.loads(line)
        if header["format"] != INDEX_FORMAT:
            raise _BadIndex(f"corrupt: not a {INDEX_FORMAT} file")
        if header["version"] != INDEX_VERSION:
            log.debug("digest index %s has format version %r", path, header["version"])
            return None
        if header["root"] != str(root):
            log.debug("digest index %s describes %r, not %s", path, header["root"], root)
            return None
        root_stat = os.stat(root)
        if (header["dev"], header["ino"]) != (root_stat.st_dev, root_stat.st_ino):
            log.debug("digest index %s describes an earlier directory at %s", path, root)
            return None
        snapshot = Snapshot(root=root, entries={}, stamp_ns=header["stamp_ns"])
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise _BadIndex(f"corrupt header: {exc!r}") from None
    for line in handle:
        if not line.endswith(b"\n"):
            raise _BadIndex("truncated: last line is incomplete")
        if line.startswith(_INDEX_END):
            if line[len(_INDEX_END):-1] != digest.hexdigest().encode("ascii"):
                raise _BadIndex("corrupt: checksum mismatch")
            if handle.read(1):
                raise _BadIndex("corrupt: data after the end line")
            return snapshot
        digest.update(line)
        try:
            size, mtime, ctime_ns, ino, sha256, rel = (
                line[:-1].decode("utf-8", errors="surrogateescape").split("\t", 5)
            )
            if "\\" in rel:
                rel = _REL_ESCAPE.sub(lambda m: "\n" if m[1] == "n" else m[1], rel)
            entry = (int(size), float(mtime), sha256, int(ctime_ns), int(ino))
            snapshot.entries[rel] = IndexEntry(entry)
        except ValueError as exc:
            raise _BadIndex(f"corrupt entry line: {exc}") from None
    raise _BadIndex("truncated: no end line")


INDEX_FILES_KEPT = 64
"""How many digest index files the cache directory keeps; the oldest by
mtime are deleted after each save."""


def index_directory(roots: Iterable[Path]) -> Path | None:
    """Return the directory of the digest indexes, resolved.

    $XDG_CACHE_HOME/provwrap, or ~/.cache/provwrap when XDG_CACHE_HOME is
    unset or relative (a relative value is ignored, as the XDG base
    directory spec asks); None when no home directory is known either, or
    when the directory lies inside one of the watched roots, since
    provwrap's own files never enter a snapshot.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(base):
            return None
    try:
        directory = Path(base, "provwrap").resolve()
    except (OSError, RuntimeError) as exc:  # RuntimeError: a symlink loop
        log.debug("no digest index directory under %s: %s", base, exc)
        return None
    if any(root == directory or root in directory.parents for root in roots):
        return None
    return directory


def index_file(directory: Path, root: Path) -> Path:
    """Return the index file of a resolved root: a digest of its path."""
    return directory / (hashlib.sha256(os.fsencode(root)).hexdigest() + ".index")


def save_indexes(directory: Path, snapshots: list[Snapshot]) -> None:
    """Save each snapshot as its root's index, then keep INDEX_FILES_KEPT files.

    Never raises and never waits: a directory that cannot be created or
    written only leaves the next run cold, with a debug log.
    """
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
    except OSError as exc:
        log.debug("digest index directory %s not usable: %s", directory, exc)
        return
    for snapshot in snapshots:
        try:
            save_snapshot(snapshot, index_file(directory, snapshot.root))
        except (OSError, ValueError) as exc:
            log.debug("digest index of %s not saved: %s", snapshot.root, exc)
    try:
        files = []
        with os.scandir(directory) as listing:
            for entry in listing:
                try:
                    if entry.is_file(follow_symlinks=False):
                        files.append((entry.stat(follow_symlinks=False).st_mtime_ns, entry.path))
                except FileNotFoundError:
                    continue  # removed by a concurrent run
        for _, path in sorted(files)[:-INDEX_FILES_KEPT]:  # the oldest
            try:
                os.unlink(path)
            except FileNotFoundError:
                continue
    except OSError as exc:
        log.debug("digest index directory %s not pruned: %s", directory, exc)


def diff_snapshots(before: Snapshot, after: Snapshot) -> list[FileEvent]:
    """Compare two snapshots of the same root.

    New paths become Created, vanished paths Removed, and common paths with
    differing (size, sha256) Modified; mtime alone never marks a file
    modified. Output is grouped Created/Modified/Removed, path-sorted
    within each group.
    """
    if before.root != after.root:
        raise ValueError(f"snapshot roots differ: {before.root} vs {after.root}")
    before_keys = set(before.entries)
    after_keys = set(after.entries)
    created = sorted(after_keys - before_keys)
    removed = sorted(before_keys - after_keys)
    modified = sorted(
        rel  # [:3:2] of an entry is (size, sha256)
        for rel in before_keys & after_keys
        if before.entries[rel][:3:2] != after.entries[rel][:3:2]
    )
    return [
        FileEvent(before.root / rel, kind)
        for group, kind in (
            (created, EventKind.CREATED),
            (modified, EventKind.MODIFIED),
            (removed, EventKind.REMOVED),
        )
        for rel in group
    ]


class PathResolver:
    """Takes path texts from base as a run records them: the directory part
    resolved (symlinks, "." and "..") once per directory, the leaf as named,
    so a symlinked file keeps the name a snapshot walk lists it by; a last
    component "." or ".." (or none) resolves whole. One resolver, one run."""

    def __init__(self, base: Path) -> None:
        self.base = base
        self._real_dir = functools.cache(os.path.realpath)

    def __call__(self, path: str | os.PathLike[str]) -> Path:
        head, leaf = os.path.split(os.path.join(self.base, path))
        if leaf in ("", ".", ".."):
            return Path(os.path.realpath(os.path.join(head, leaf)))
        return Path(self._real_dir(head), leaf)


# --- trace transcript parsing -----------------------------------------------

_QUOTED = r'"([^"\\]*(?:\\(?s:.)[^"\\]*)*)"'
"""A strace-quoted string, its raw inner text captured. A backslash always
takes the next character with it, so \\" never closes the string. The
loop is unrolled (plain runs between escapes), so a plain run costs one
step, not one alternation per character."""

# [pid] open-family call, or its resumption; the last group is the call's text
_LINE = re.compile(
    r"(?:\[pid\s+(\d+)\]\s*|(\d+)\s+)?"
    r"(?:(open|openat|creat)\(|<\.\.\.\s+(open|openat|creat)\s+resumed>\s*)(.*)",
    re.DOTALL,
)
# A completed call's text: the arguments before the first quoted path, that
# path and the flags right after it (any may be missing), then the return value.
_COMPLETED = re.compile(
    r'(?:([^"]*)' + _QUOTED + r"(?:\s*,\s*([A-Za-z0-9_|]+))?)?"
    r".*?\)\s*=\s*(-?\d+)(?:\s.*)?$",
    re.DOTALL,
)
_UNFINISHED = "<unfinished ...>"
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}
_ESCAPE = re.compile(rb"\\([0-7]{1,3}|.)", re.DOTALL)
# escape -> byte, for \" \\ \f \n \r \t \v and each 1-3 digit octal spelling up to \377
_ESCAPES = {name.encode(): char.encode() for name, char in zip('"\\fnrtv', '"\\\f\n\r\t\v')}
_ESCAPES.update(
    (f"{value:0{width}o}".encode(), bytes([value]))
    for width in (1, 2, 3) for value in range(min(8**width, 256))
)


def _unescape_path(raw: str, lineno: int) -> str:
    """Decode the escapes strace's string_quote puts inside a quoted path.

    Handles \\" \\\\ \\f \\n \\r \\t \\v and octal escapes of 1 to 3 digits
    (strace writes 3 only when an octal digit follows); any other escape,
    and an octal value above \\377, passes through verbatim with a warning.
    Octal escapes are raw bytes, so the result is decoded as UTF-8 with
    surrogate escapes to stay lossless; raw undecodable bytes already
    carried as surrogate escapes in raw round-trip the same way.
    """

    def decode(escape: re.Match[bytes]) -> bytes:
        if escape[1] not in _ESCAPES:
            shown = escape[0].decode("utf-8", errors="backslashreplace")
            log.warning("trace line %d: unknown escape %s kept verbatim", lineno, shown)
        return _ESCAPES.get(escape[1], escape[0])

    data = raw.encode("utf-8", errors="surrogateescape")
    return _ESCAPE.sub(decode, data).decode("utf-8", errors="surrogateescape")


def parse_trace_stream(
    lines: Iterable[str],
    strict: bool = False,
    cwd: Path | None = None,
) -> list[FileEvent]:
    """Turn a syscall tracer transcript into read/write intent events.

    Only successful open/openat/creat calls produce events; failed calls
    (return -1), directory opens (O_DIRECTORY) and all other lines are
    ignored. So is an openat of a relative path from a directory fd other
    than AT_FDCWD: the transcript does not say which directory the fd
    names, and the path taken from cwd could be another file; one warning
    per call counts those opens. "<unfinished ...>" lines are held and
    joined with their matching "resumed" line by (pid, syscall) before
    parsing, so the event is ordered at the resume point. In lenient mode
    (default) malformed open lines and unpaired resumed lines are skipped
    with a warning; in strict mode they raise TraceParseError naming the
    line number.

    When cwd is given, one PathResolver takes every path from it (so a
    symlinked leaf keeps its name). Each distinct quoted path text is
    unescaped and resolved once per call and its Path shared by all its
    events, so the filesystem is consulted per distinct directory, not per
    event, and an unknown escape is warned about once. A transcript is
    parsed after its run, so each event gets the answer it would get alone.
    """
    events: list[FileEvent] = []
    pending: dict[tuple[int | None, str], str] = {}
    resolved: dict[str, Path] = {}
    resolve = Path if cwd is None else PathResolver(cwd)  # Path: kept as written
    from_dirfd: list[int] = []  # line numbers of openat calls relative to a dirfd

    def problem(lineno: int, message: str) -> None:
        if strict:
            raise TraceParseError(f"line {lineno}: {message}")
        log.warning("trace line %d skipped: %s", lineno, message)

    for lineno, raw in enumerate(lines, start=1):
        line = _LINE.match(raw.strip())
        if line is None:
            continue  # not an open-family line
        bracketed_pid, bare_pid, called, resumed, text = line.groups()
        pid = int(bracketed_pid or bare_pid) if bracketed_pid or bare_pid else None
        syscall = called or resumed
        if resumed:
            if (pid, syscall) not in pending:
                problem(lineno, f"resumed {syscall} with no matching unfinished call")
                continue
            text = pending.pop((pid, syscall)) + text
        elif text.endswith(_UNFINISHED):
            pending[(pid, syscall)] = text[: -len(_UNFINISHED)].rstrip()
            continue
        call = _COMPLETED.match(text)
        if call is None:
            problem(lineno, f"{syscall} call without a parsable return value")
            continue
        before_path, raw_path, flags, returned = call.groups()
        if int(returned) < 0:
            continue  # failed call
        if raw_path is None:
            problem(lineno, f"{syscall} call without a quoted path")
            continue
        if syscall == "creat":
            flags = "O_CREAT|O_WRONLY|O_TRUNC"  # what creat means
        elif flags is None:
            problem(lineno, f"{syscall} call without flags after the path")
            continue
        flag_set = set(flags.split("|"))
        if "O_DIRECTORY" in flag_set:
            continue  # listing a directory reads no file
        if syscall == "openat" and raw_path[:1] != "/" and before_path.strip(" ,") != "AT_FDCWD":
            from_dirfd.append(lineno)  # relative to a directory fd: to which directory?
            continue
        path = resolved.get(raw_path)
        if path is None:
            path = resolve(_unescape_path(raw_path, lineno) if "\\" in raw_path else raw_path)
            resolved[raw_path] = path
        kind = EventKind.WRITE_INTENT if flag_set & _WRITE_FLAGS else EventKind.READ_INTENT
        events.append(FileEvent(path=path, kind=kind, pid=pid))

    for pid, syscall in pending:
        log.warning("unfinished %s call (pid %s) never resumed", syscall, pid)
    if from_dirfd:
        log.warning(
            "%d openat call(s) of a relative path from a directory fd gave no event"
            " (first at trace line %d): the trace does not say which directory",
            len(from_dirfd), from_dirfd[0],
        )
    return events


# --- control channel ----------------------------------------------------------

class DirectiveKind(Enum):
    INPUT = "INPUT"
    OUTPUT = "OUTPUT"
    UNTRACK = "UNTRACK"
    END_RUN = "END_RUN"


@dataclass(frozen=True)
class ControlDirective:
    """One parsed line of the control-channel file."""

    kind: DirectiveKind
    path: str = ""
    run_name: str | None = None
    index: int = 0  # the 0-based control line it came from

    def to_line(self) -> str:
        """Canonical wire form, without the trailing LF."""
        if self.kind is DirectiveKind.END_RUN:
            if self.run_name is None:
                return "END_RUN"
            return f"END_RUN\t{self.run_name}"
        return f"{self.kind.value}\t{self.path}"


_PATH_VERBS = {
    "INPUT": DirectiveKind.INPUT,
    "OUTPUT": DirectiveKind.OUTPUT,
    "UNTRACK": DirectiveKind.UNTRACK,
}


def parse_control_line(line: str, index: int) -> ControlDirective | None:
    """Parse one control-channel line (a trailing LF is ignored) at 0-based index.

    Returns None for a blank line; raises ControlParseError naming the
    1-based line number for a line holding undecodable bytes (lone
    surrogates, as surrogateescape decoding leaves them), an unknown verb
    or a missing path.
    """
    line = line[:-1] if line.endswith("\n") else line
    if line == "":
        return None
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise ControlParseError(f"line {index + 1} is not valid UTF-8") from None
    verb, sep, arg = line.partition("\t")
    if verb == "END_RUN":
        run_name = arg if sep and arg != "" else None
        return ControlDirective(kind=DirectiveKind.END_RUN, run_name=run_name, index=index)
    if verb not in _PATH_VERBS:
        raise ControlParseError(f"line {index + 1}: unknown verb {verb!r}")
    if not sep or arg == "":
        raise ControlParseError(f"line {index + 1}: {verb} requires a path")
    return ControlDirective(kind=_PATH_VERBS[verb], path=arg, index=index)


def parse_control_stream(lines: Iterable[str]) -> list[ControlDirective]:
    """Parse control-channel lines: VERB<TAB>ARG, one directive per line.

    index is the 0-based line index. Blank lines are ignored, and a line that
    `parse_control_line` rejects is skipped with a warning naming its
    1-based number; either still consumes its index, so only that
    directive is lost, never the run.
    """
    directives = []
    for index, line in enumerate(lines):
        try:
            directive = parse_control_line(line, index)
        except ControlParseError as exc:
            log.warning("control %s; the line was ignored", exc)
            continue
        if directive is not None:
            directives.append(directive)
    return directives
