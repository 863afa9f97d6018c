"""Bundle directory allocation and writing.

A bundle is one numbered directory (<base>_<k>) holding the copied
artifacts under inputs/, outputs/, src/ and _external/ (files outside the
working directory), the provenance records, and the crate descriptor.
The copied entry script re-executes from the original working directory
because artifact layout mirrors working-directory-relative paths.
"""

from __future__ import annotations

import errno
import logging
import os
import shutil
import stat
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .classify import RunConfig, RunSegment
from .errors import BundleError
from .monitor import sha256_file, unchanged_since
from .provmodel import build_document
from .runmeta import RunMetadata
from .serialize import render_svg, to_dot, to_prov_json, to_rocrate_metadata

log = logging.getLogger(__name__)


@dataclass
class BundleReport:
    """What one write_bundle call put on disk."""

    bundle_dir: Path
    files_written: list[str] = field(default_factory=list)
    bytes_copied: int = 0
    warnings: list[str] = field(default_factory=list)


def allocate_run_dir(base_name: str, parent: Path, start: int = 0) -> Path:
    """Create and return <parent>/<base_name>_<k> for the smallest free k >= start.

    Creation is exclusive (mkdir), so concurrent wrapper invocations race
    safely: a collision just retries with the next k. A caller that has
    just taken prov_j passes j + 1 as start, since every k up to j is taken.
    """
    parent = Path(parent)
    k = start
    while True:
        candidate = parent / f"{base_name}_{k}"
        try:
            candidate.mkdir()
        except FileExistsError:
            k += 1
            continue
        return candidate


_LINK_FALLBACK_ERRNOS = (errno.EPERM, errno.EXDEV, errno.EMLINK)


def _link_shared(target: Path, destination: Path) -> bool:
    """Hard-link destination to target and make the shared inode read-only.

    Returns False, leaving nothing behind, when the filesystem refuses the
    link (no hard links, another device, too many links).
    """
    try:
        os.link(target, destination)
    except OSError as exc:
        if exc.errno in _LINK_FALLBACK_ERRNOS:
            return False
        raise
    mode = stat.S_IMODE(os.stat(destination).st_mode)
    if mode & 0o222:
        # an in-place edit of one bundle's copy must not change another's
        os.chmod(destination, mode & ~0o222)
    return True


def _open_file(path: Path) -> tuple[int, os.stat_result] | None:
    """Open path for reading and fstat it; None when it is gone or not a regular file."""
    try:
        # non-blocking, so a FIFO put in its place cannot stall the run
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except (FileNotFoundError, NotADirectoryError):
        return None
    st = os.fstat(fd)
    if stat.S_ISREG(st.st_mode):
        return fd, st
    os.close(fd)
    return None


def _copy_from(source: int, destination: Path) -> bool:
    """Have the kernel copy the regular file open as source into destination,
    from offset 0 (sendfile, as shutil.copyfile does on Linux). False, with
    destination empty, when sendfile refuses before the first byte, as on a
    FUSE source or where it writes only to sockets.
    """
    with open(destination, "wb") as out:
        offset = 0
        try:
            while sent := os.sendfile(out.fileno(), source, offset, 1 << 30):
                offset += sent
        except OSError as exc:
            if offset or exc.errno not in (errno.EINVAL, errno.ENOSYS, errno.ENOTSOCK):
                raise
            return False
    return True


def write_bundle(
    segment: RunSegment,
    meta: RunMetadata,
    config: RunConfig,
    bundle_dir: Path,
    links: dict[tuple[str, int], Path] | None = None,
) -> BundleReport:
    """Copy the segment's artifacts into bundle_dir, then describe them there.

    bundle_dir must be empty: the reservation `allocate_run_dir` made. The
    bundle is built in a sibling named <name>_tmp-<random> (the <dir>_*
    exclusion hides it) and renamed over bundle_dir once every copy is
    verified and every document written, so a reader sees bundle_dir empty
    or complete; the `--json` copy <name>.provenance.json beside it goes
    just before. On an error the sibling and the copy are removed, bundle_dir
    stays empty and the error, naming bundle files by their bundle-relative
    path, is raised.

    A copied record without a digest or size is refused before anything is
    written. Each source is opened once, fstat'ed, copied from that
    descriptor and fstat'ed again. The copy is verified against the
    record's digest; a mismatch is a hard error, since a corrupted bundle
    must never pass as success. When the record has a proof (its digest was
    computed in this run, see `Snapshot.copy_proof`) and `unchanged_since`
    holds for the first fstat, sendfile copies it, and it is verified
    without being read if the second holds too (the source held the hashed
    bytes throughout), or read back and hashed if not. Otherwise (a digest
    from the digest index, a ctime tie, a root without a stamp, or a refused
    sendfile) the copy is hashed as it is written, by `sha256_file(fd,
    copy_to=...)`. A source that is gone or no longer a regular file is kept
    as metadata only, with a warning. Then one document is built from the
    records as they stand; it and the crate take the segment's name.

    links, when given, maps a recorded (sha256, size_bytes) to the first
    published bundle copy with that content; the caller owns it and passes
    the same dict to every bundle of one run, and this bundle's copies join
    it once published. A record whose content is there, or earlier in this
    bundle, is hard-linked to that copy instead of copied, never to its
    source, so a later edit of the user's file cannot reach a bundle; the
    shared inode loses its write bits. A link shares the verified copy's
    bytes, so it is not read again. When the filesystem refuses the link,
    the file is copied as usual.
    """
    bundle_dir = Path(bundle_dir)
    if not bundle_dir.is_dir():
        raise BundleError(f"bundle directory does not exist: {bundle_dir}")
    if any(bundle_dir.iterdir()):
        raise BundleError(f"bundle directory is not empty: {bundle_dir}")
    for record in segment.records:
        if record.copied and (record.sha256 is None or record.size_bytes is None):
            raise BundleError(
                f"copied record {record.bundle_relative_path!r} has no digest or size"
            )

    report = BundleReport(bundle_dir=bundle_dir)
    made: dict[tuple[str, int], Path] = {}  # this bundle's copies, until it is published
    made_dirs: set[Path] = set()
    build = Path(tempfile.mkdtemp(prefix=f"{bundle_dir.name}_tmp-", dir=bundle_dir.parent))
    pending = build / f"{bundle_dir.name}.provenance.json"  # the --json copy
    try:
        os.chmod(build, stat.S_IMODE(os.stat(bundle_dir).st_mode))  # mkdtemp's is 0o700
        for record in segment.records:
            if not record.copied:
                continue
            source = record.original_path
            destination = build / record.bundle_relative_path
            opened = _open_file(source)
            if opened is None:
                report.warnings.append(
                    f"{source} vanished before copy; keeping metadata only"
                )
                record.copied = False
                record.skip_reason = "vanished"
                continue
            fd, before = opened
            try:
                if destination.parent not in made_dirs:
                    destination.parent.mkdir(parents=True, exist_ok=True)
                    made_dirs.add(destination.parent)
                content = (record.sha256, record.size_bytes)
                shared = None if links is None else links.get(content, made.get(content))
                if shared is None or not _link_shared(shared, destination):
                    proof = record.proof
                    if proof and unchanged_since(before, *proof) and _copy_from(fd, destination):
                        held = unchanged_since(os.fstat(fd), *proof)
                        copied = record.sha256 if held else sha256_file(destination)
                    else:  # copy_to by keyword: a wrapper that stats the arguments sees fd
                        copied = sha256_file(fd, copy_to=destination)
                    if copied != record.sha256:
                        raise BundleError(
                            f"digest mismatch after copying {source} to "
                            f"{record.bundle_relative_path}; the file changed during packaging"
                        )
            finally:
                os.close(fd)
            made.setdefault(content, destination)
            report.bytes_copied += record.size_bytes
            report.files_written.append(record.bundle_relative_path)

        doc = build_document(segment.records, meta, config, run_name=segment.name)
        prov_json = to_prov_json(doc)
        (build / "provenance.json").write_bytes(prov_json)
        report.files_written.append("provenance.json")

        if config.create_dot_file or config.create_svg_file:
            dot_text = to_dot(doc)
            if config.create_dot_file:
                (build / "provenance.dot").write_text(dot_text, encoding="utf-8")
                report.files_written.append("provenance.dot")
            if config.create_svg_file:
                svg = render_svg(dot_text)
                (build / "provenance.svg").write_bytes(svg)
                report.files_written.append("provenance.svg")

        if config.create_rocrate:
            crate = to_rocrate_metadata(segment, meta)
            (build / "ro-crate-metadata.json").write_bytes(crate)
            report.files_written.append("ro-crate-metadata.json")

        if config.create_json_file:  # published first, removed below if the bundle is not
            pending.write_bytes(prov_json)
            os.rename(pending, bundle_dir.with_name(pending.name))
            pending = bundle_dir.with_name(pending.name)
        os.rename(build, bundle_dir)  # POSIX replaces the empty reservation atomically
    except BaseException as exc:
        shutil.rmtree(build, ignore_errors=True)
        pending.unlink(missing_ok=True)
        for attr in ("filename", "filename2"):  # a bundle file by its place in the bundle
            name = getattr(exc, attr, None)
            if isinstance(name, str) and f"{name}/".startswith(f"{build}/"):
                setattr(exc, attr, os.path.relpath(name, build))
        raise
    if links is not None:
        for content, copy in made.items():
            if content not in links:  # by string: Path.relative_to costs a parse per copy
                links[content] = bundle_dir / str(copy)[len(str(build)) + 1 :]
    return report
