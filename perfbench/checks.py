"""Checks every bundle one provwrap invocation left, against ground truth.

For each bundle: provenance.json parses with `parse_prov_json`, validates
with no violations and serializes back to the same bytes; the set of
(bundle path, role) equals the generator's; every copied file's size and
sha256 match the record and the ground truth; the RO-Crate `hasPart` is
exactly the copied files plus provenance.json; and the bundle holds no
other file. The fingerprint rows leave timestamps out, so they repeat for
one seed and change only when bundle content changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from provwrap import parse_prov_json, to_prov_json, validate
from provwrap.provmodel import decode_local

CRATE = "ro-crate-metadata.json"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _files_under(directory: Path) -> set[str]:
    found = set()
    for dirpath, _, filenames in os.walk(directory):
        for name in filenames:
            found.add(Path(dirpath, name).relative_to(directory).as_posix())
    return found


def check_bundle(bundle: Path, expected: dict) -> tuple[list[str], list[tuple], tuple[float, float]]:
    """Return (errors, fingerprint rows, (child start, child end) epoch seconds)."""
    errors: list[str] = []
    where = bundle.name
    data = (bundle / "provenance.json").read_bytes()
    doc = parse_prov_json(data)
    violations = validate(doc)
    if violations:
        errors.append(f"{where}: validate() reported {violations[:3]}")
    if to_prov_json(doc) != data:
        errors.append(f"{where}: provenance.json does not round-trip byte for byte")
    (activity,) = doc.activities.values()
    if activity.exit_status != 0:
        errors.append(f"{where}: child exit status {activity.exit_status}")
    window = (activity.start_time.timestamp(), activity.end_time.timestamp())

    rows = []
    copied = set()
    for entity in doc.entities.values():
        path = decode_local(entity.id.local)
        role = entity.role.value
        skip = entity.extra_attributes.get("yprov:skip_reason")
        rows.append((where, path, role, entity.sha256, entity.copied, skip))
        truth = expected.get(path)
        if truth is None:
            errors.append(f"{where}: unexpected record {path} ({role})")
            continue
        want_role, want_size, want_sha = truth
        if role != want_role:
            errors.append(f"{where}: {path} has role {role}, expected {want_role}")
        if (entity.size_bytes, entity.sha256) != (want_size, want_sha):
            errors.append(f"{where}: {path} record size/sha256 differ from the ground truth")
        if not entity.copied:
            errors.append(f"{where}: {path} was not copied ({skip})")
            continue
        copied.add(path)
        on_disk = bundle / path
        if not on_disk.is_file():
            errors.append(f"{where}: copied file {path} is missing")
        elif on_disk.stat().st_size != want_size or _sha256(on_disk) != want_sha:
            errors.append(f"{where}: copied file {path} differs from the ground truth")
    missing = set(expected) - {row[1] for row in rows}
    if missing:
        errors.append(f"{where}: {len(missing)} expected records missing, e.g. {sorted(missing)[0]}")

    crate = json.loads((bundle / CRATE).read_text(encoding="utf-8"))
    (root,) = [node for node in crate["@graph"] if node["@id"] == "./"]
    parts = [part["@id"] for part in root["hasPart"]]
    if len(parts) != len(set(parts)) or set(parts) != copied | {"provenance.json"}:
        errors.append(f"{where}: RO-Crate hasPart is not the copied files plus provenance.json")
    for node in crate["@graph"]:
        truth = expected.get(node["@id"])
        if truth and (node.get("contentSize"), node.get("sha256")) != truth[1:]:
            errors.append(f"{where}: RO-Crate entry {node['@id']} differs from the ground truth")
    extra = _files_under(bundle) - copied - {"provenance.json", CRATE}
    if extra:
        errors.append(f"{where}: unexpected files in the bundle, e.g. {sorted(extra)[0]}")
    return errors, rows, window


def check_invocation(root: Path, expected: list[dict]):
    """Check all bundles under root; return (errors, rows, child window)."""
    names = sorted(entry.name for entry in root.iterdir() if entry.name.startswith("prov_"))
    want = sorted(f"prov_{k}" for k in range(len(expected)))
    if names != want:
        return [f"expected {len(want)} bundles prov_0.., found {names[:5]}"], [], None
    errors: list[str] = []
    rows: list[tuple] = []
    windows = set()
    for k, truth in enumerate(expected):
        try:
            bundle_errors, bundle_rows, window = check_bundle(root / f"prov_{k}", truth)
        except Exception as exc:  # a malformed bundle is a failed run, not a crash
            bundle_errors, bundle_rows, window = [f"prov_{k}: {type(exc).__name__}: {exc}"], [], None
        errors += bundle_errors
        rows += bundle_rows
        windows.add(window)
    if len(windows) != 1 or None in windows:
        errors.append("bundles disagree on the run's start and end times")
        return errors, rows, None
    return errors, rows, windows.pop()


def fingerprint(rows: list[tuple]) -> str:
    """Digest over sorted (bundle, path, role, sha256, copied, skip_reason) rows."""
    text = json.dumps(sorted(rows, key=lambda row: json.dumps(row)), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check_standin(workload, env: dict) -> list[str]:
    """Self-check of the strace stand-in on the workload's transcript.

    Run the way provwrap runs strace, its transcript must parse with
    `parse_trace_stream(strict=True)` and open the control file once per
    END_RUN. Run without `-o FILE` or without a command, it must fail.
    """
    from provwrap import TraceParseError, parse_trace_stream
    from provwrap.cli import _STRACE_ARGS

    errors = []
    check_dir = Path(env["TMPDIR"]) / "standin-check"
    check_dir.mkdir()
    control, transcript = check_dir / "control", check_dir / "trace"
    env = dict(env, YPROV_CONTROL=str(control))
    command = [sys.executable, "-c", "pass"]

    def run(argv):
        return subprocess.run(
            ["strace", *argv], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=60, check=False,
        ).returncode

    if run([*_STRACE_ARGS, "-o", str(transcript), *command]) != 0:
        errors.append("strace stand-in failed on provwrap's own arguments")
    else:
        try:
            with open(transcript, encoding="utf-8", errors="surrogateescape") as handle:
                events = parse_trace_stream(handle, strict=True, cwd=workload.root)
        except TraceParseError as exc:
            errors.append(f"stand-in transcript does not parse strictly: {exc}")
        else:
            opens = sum(1 for event in events if event.path == control)
            if opens != len(workload.expected) - 1:
                errors.append(f"stand-in transcript opens the control file {opens} times")
    if run([*_STRACE_ARGS, *command]) == 0:
        errors.append("strace stand-in accepted a call without -o FILE")
    if run([*_STRACE_ARGS, "-o", str(transcript)]) == 0:
        errors.append("strace stand-in accepted a call without a command")
    return errors
