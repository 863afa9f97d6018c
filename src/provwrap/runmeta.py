"""Execution metadata: command line, timestamps, identity, git commit.

The git commit is resolved by reading repository files directly; the git
executable is never invoked.
"""

from __future__ import annotations

import getpass
import logging
import os
import re
import signal
import socket
import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

log = logging.getLogger(__name__)

_HEX40 = re.compile(r"^[0-9a-fA-F]{40}$")
_TIMESTAMP = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})\.(\d{3})Z$"
)


def utc_now_ms() -> datetime:
    """Current UTC time truncated to millisecond precision."""
    now = datetime.now(timezone.utc)
    return now.replace(microsecond=(now.microsecond // 1000) * 1000)


def format_timestamp(dt: datetime) -> str:
    """Render a UTC datetime as ISO-8601 with exactly millisecond precision."""
    if dt.tzinfo is None:
        raise ValueError("timestamp must be timezone-aware")
    dt = dt.astimezone(timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%S.") + f"{dt.microsecond // 1000:03d}Z"


def parse_timestamp(text: str) -> datetime:
    """Inverse of :func:`format_timestamp`; rejects anything else."""
    m = _TIMESTAMP.match(text)
    if not m:
        raise ValueError(f"not a millisecond-UTC timestamp: {text!r}")
    year, month, day, hour, minute, second, milli = (int(g) for g in m.groups())
    return datetime(
        year, month, day, hour, minute, second, milli * 1000, tzinfo=timezone.utc
    )


def format_command(argv: Sequence[str]) -> str:
    """Join argv into a single command-line string that `shlex.split` reads
    back as argv.

    An argument that is empty or contains whitespace, `"`, `'` or `\\` is
    wrapped in double quotes, with `\\` and `"` backslash-escaped inside;
    everything else stays verbatim.
    """
    parts = []
    for arg in argv:
        if arg == "" or any(ch.isspace() or ch in "\"'\\" for ch in arg):
            parts.append('"' + arg.replace("\\", "\\\\").replace('"', '\\"') + '"')
        else:
            parts.append(arg)
    return " ".join(parts)


@dataclass
class RunMetadata:
    """Everything recorded about one execution of the wrapped command."""

    command: str
    argv: list[str]
    start_time: datetime
    end_time: datetime
    exit_status: int
    username: str
    hostname: str
    cwd: Path
    git_commit: str | None = None


def _find_git_dir(start_dir: Path) -> Path | None:
    current = Path(start_dir).resolve()
    for candidate in (current, *current.parents):
        git_dir = candidate / ".git"
        if git_dir.is_dir():
            return git_dir
    return None


def _read_ref_file(path: Path) -> str | None:
    try:
        content = path.read_text(encoding="utf-8").strip()
    except OSError:
        return None
    return content.lower() if _HEX40.match(content) else None


def _scan_packed_refs(git_dir: Path, ref: str) -> str | None:
    packed = git_dir / "packed-refs"
    try:
        lines = packed.read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    for line in lines:
        # "^" lines are peeled tag targets, "#" lines are comments.
        if not line or line.startswith("#") or line.startswith("^"):
            continue
        fields = line.split(None, 1)
        if len(fields) != 2:
            continue
        digest, name = fields
        if name.strip() == ref and _HEX40.match(digest):
            return digest.lower()
    return None


def resolve_git_head(start_dir: Path) -> str | None:
    """Return the commit hash HEAD points at, or None.

    Walks upward from start_dir to the nearest directory containing ".git"
    and resolves HEAD purely from file contents: a detached 40-hex HEAD is
    returned as-is; a symbolic "ref: <path>" is looked up first as a loose
    ref file, then in packed-refs.
    """
    git_dir = _find_git_dir(start_dir)
    if git_dir is None:
        log.debug("no git repository found above %s", start_dir)
        return None
    try:
        head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
    except OSError as exc:
        log.debug("could not read %s: %s", git_dir / "HEAD", exc)
        return None
    if _HEX40.match(head):
        return head.lower()
    if head.startswith("ref: "):
        ref = head[len("ref: "):].strip()
        commit = _read_ref_file(git_dir / ref)
        if commit is None:
            commit = _scan_packed_refs(git_dir, ref)
        if commit is None:
            log.debug("unresolvable ref %r in %s", ref, git_dir)
        return commit
    log.debug("unrecognized HEAD content in %s", git_dir)
    return None


def capture_run(
    argv: Sequence[str],
    env_overrides: Mapping[str, str],
    spawn_argv: Sequence[str] | None = None,
) -> RunMetadata:
    """Run the command and record its execution metadata.

    The child inherits the wrapper's streams and environment plus
    env_overrides (which is where YPROV_CONTROL is injected). spawn_argv,
    when given, is what actually gets executed (e.g. a tracer wrapping the
    command); the recorded command string always reflects argv. SIGINT and
    SIGTERM received while waiting are forwarded to the child so it is
    never orphaned. A negative wait status (death by signal N) is recorded
    as 128+N, matching what a shell would report.
    """
    if not argv:
        raise ValueError("argv must not be empty")
    env = dict(os.environ)
    env.update(env_overrides)

    start_time = utc_now_ms()
    proc = subprocess.Popen(list(spawn_argv or argv), env=env)

    def forward(signum, frame):
        try:
            proc.send_signal(signum)
        except ProcessLookupError:
            pass

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, forward)
        except ValueError:
            pass  # not on the main thread; forwarding unavailable
    try:
        returncode = proc.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    end_time = utc_now_ms()
    exit_status = returncode if returncode >= 0 else 128 - returncode

    try:
        username = getpass.getuser() or "unknown"
    except (KeyError, OSError):
        username = "unknown"
    try:
        hostname = socket.gethostname() or "unknown"
    except OSError:
        hostname = "unknown"
    cwd = Path.cwd()

    return RunMetadata(
        command=format_command(argv),
        argv=list(argv),
        start_time=start_time,
        end_time=end_time,
        exit_status=exit_status,
        username=username,
        hostname=hostname,
        cwd=cwd,
        git_commit=resolve_git_head(cwd),
    )
