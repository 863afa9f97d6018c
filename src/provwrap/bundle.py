"""Bundle directory allocation and writing.

A bundle is one numbered directory (<base>_<k>) holding the copied
artifacts under inputs/, outputs/ and src/, the provenance records, and
the crate descriptor. The copied entry script re-executes from the
original working directory because artifact layout mirrors
working-directory-relative paths.
"""

from __future__ import annotations

import errno
import logging
import os
import shutil
import stat
from dataclasses import dataclass, field
from pathlib import Path

from .classify import RunConfig, RunSegment
from .errors import BundleError
from .monitor import sha256_file
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


def write_bundle(
    segment: RunSegment,
    meta: RunMetadata,
    config: RunConfig,
    bundle_dir: Path,
    links: dict[tuple[str, int], Path] | None = None,
) -> BundleReport:
    """Copy the segment's artifacts into bundle_dir, then describe them there.

    A copied record without a digest or size is refused before anything is
    written. Copies are digest-verified; a mismatch is a hard error, since a
    corrupted bundle must never pass as success. A vanished file is kept as
    metadata only, with a warning. Then one document is built from the
    records as they stand; it and the crate take the segment's name.

    links, when given, maps a recorded (sha256, size_bytes) to the first
    bundle copy with that content that has been copied and verified; the
    caller owns it and passes the same dict to every bundle of one run. A
    record whose content is already there is hard-linked to that copy
    instead of copied, never to its source, so a later edit of the user's
    file cannot reach a bundle; the shared inode loses its write bits. When
    the filesystem refuses the link, the file is copied as usual. Linked or
    copied, every destination is hashed and checked the same way.
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
    made_dirs: set[Path] = set()
    for record in segment.records:
        if not record.copied:
            continue
        source = record.original_path
        destination = bundle_dir / record.bundle_relative_path
        if not source.is_file():
            report.warnings.append(
                f"{source} vanished before copy; keeping metadata only"
            )
            record.copied = False
            record.skip_reason = "vanished"
            continue
        if destination.parent not in made_dirs:
            destination.parent.mkdir(parents=True, exist_ok=True)
            made_dirs.add(destination.parent)
        content = (record.sha256, record.size_bytes)
        shared = None if links is None else links.get(content)
        if shared is None or not _link_shared(shared, destination):
            shutil.copyfile(source, destination)
        if sha256_file(destination) != record.sha256:
            raise BundleError(
                f"digest mismatch after copying {source} to {destination}; "
                "the file changed during packaging"
            )
        if links is not None:
            links.setdefault(content, destination)
        report.bytes_copied += destination.stat().st_size
        report.files_written.append(record.bundle_relative_path)

    doc = build_document(segment.records, meta, config, run_name=segment.name)
    prov_json = to_prov_json(doc)
    (bundle_dir / "provenance.json").write_bytes(prov_json)
    report.files_written.append("provenance.json")

    if config.create_dot_file or config.create_svg_file:
        dot_text = to_dot(doc)
        if config.create_dot_file:
            (bundle_dir / "provenance.dot").write_text(dot_text, encoding="utf-8")
            report.files_written.append("provenance.dot")
        if config.create_svg_file:
            svg = render_svg(dot_text)
            (bundle_dir / "provenance.svg").write_bytes(svg)
            report.files_written.append("provenance.svg")

    if config.create_rocrate:
        crate = to_rocrate_metadata(segment, meta)
        (bundle_dir / "ro-crate-metadata.json").write_bytes(crate)
        report.files_written.append("ro-crate-metadata.json")

    if config.create_json_file:
        # Standalone convenience copy beside the bundle, e.g. prov_0.provenance.json.
        sibling = bundle_dir.with_name(bundle_dir.name + ".provenance.json")
        sibling.write_bytes(prov_json)

    return report
