"""Fault sweep over write_bundle: every failing call leaves the truth on disk.

The reference is one warm three-segment diff run with --json and --dot, so
the index digests of the inputs are hashed as their copies are written,
the fresh outputs are proven and copied by sendfile, and the repeated input
content is hard-linked across bundles. It counts the calls write_bundle
makes to each function below. The run is then repeated once per (function,
n), its n-th call failing with ENOSPC, EIO or EACCES in turn, and what is
on disk is checked after every run.
"""

import errno
import hashlib
import importlib
import json
import os
import re
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from provwrap import parse_prov_json, to_prov_json
from provwrap.cli import PROVENANCE_EXIT, run

_FAULTABLE = [
    (os, "open"), (os, "sendfile"), (os, "link"), (os, "chmod"), (os, "rename"), (os, "mkdir"),
    (tempfile, "mkdtemp"), (Path, "write_bytes"), (Path, "write_text"),
]
_CODES = (errno.ENOSPC, errno.EIO, errno.EACCES)
_SEGMENTS = ["experiment_run", "experiment_run_1", "experiment_run_2"]

# Three segments, each logging data/in.csv, its twin data/same.csv and a
# fresh output of its own. A shell child, so that each run is cheap.
_CHILD = r"""
for k in 0 1 2; do
    printf 'chart %s\n' "$k" > "out$k.txt"
    printf 'INPUT\tdata/in.csv\nINPUT\tdata/same.csv\nOUTPUT\tout%s.txt\n' "$k" >> "$YPROV_CONTROL"
    if [ "$k" -lt 2 ]; then printf 'END_RUN\n' >> "$YPROV_CONTROL"; fi
done
"""
_RUN = ["--backend", "diff", "--json", "--dot", "--", "sh", "-c", _CHILD]


class _Faults:
    """Counts the calls each write_bundle call makes to the _FAULTABLE
    functions, and fails the n-th call to target with code."""

    def __init__(self, monkeypatch, target=None, n=0, code=0):
        self.target, self.n, self.code = target, n, code
        self.counts = Counter()
        self.segment = None  # the name of the segment write_bundle is writing
        self.failed_in = None  # ... when the fault was injected
        cli = importlib.import_module("provwrap.cli")
        real_write = cli.write_bundle

        def write_bundle(segment, *args, **kwargs):
            self.segment = segment.name
            try:
                return real_write(segment, *args, **kwargs)
            finally:
                self.segment = None

        monkeypatch.setattr(cli, "write_bundle", write_bundle)
        for owner, name in _FAULTABLE:
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, self._wrap(f"{owner.__name__}.{name}", real))

    def _wrap(self, key, real):
        def call(*args, **kwargs):
            if self.segment is not None:
                self.counts[key] += 1
                if key == self.target and self.counts[key] == self.n:
                    self.failed_in = self.segment
                    raise OSError(self.code, os.strerror(self.code))
            return real(*args, **kwargs)

        return call


def _check_disk(workdir, status, err):
    """Check every bundle on disk is whole and every lost segment is
    reported; return the names of the lost segments."""
    lost = re.findall(r"provenance capture failed: segment '([^']+)' \(\d of 3\)", err)
    assert status == (PROVENANCE_EXIT if lost else 0), err
    bundles = sorted(p.name for p in workdir.glob("prov_*") if p.is_dir())
    assert bundles == [f"prov_{k}" for k in range(len(bundles))]  # contiguous, no _tmp-
    copies = sorted(p.name for p in workdir.glob("prov_*") if not p.is_dir())
    assert copies == [f"{bundle}.provenance.json" for bundle in bundles]
    named = []
    for bundle in bundles:
        bundle = workdir / bundle
        prov_json = (bundle / "provenance.json").read_bytes()
        assert to_prov_json(parse_prov_json(prov_json)) == prov_json
        assert (workdir / f"{bundle.name}.provenance.json").read_bytes() == prov_json
        payload = json.loads(prov_json)
        [activity] = payload["activity"]
        named.append(activity.split(":", 1)[1])
        for key, attrs in payload["entity"].items():
            if attrs.get("yprov:copied") == "true":
                copy = bundle / key.split(":", 1)[1]
                assert hashlib.sha256(copy.read_bytes()).hexdigest() == attrs["yprov:sha256"]
        crate = json.loads((bundle / "ro-crate-metadata.json").read_bytes())
        parts = {part["@id"] for part in crate["@graph"][1]["hasPart"]}
        present = {
            path.relative_to(bundle).as_posix() for path in bundle.rglob("*") if path.is_file()
        }
        assert parts == present - {"ro-crate-metadata.json", "provenance.dot"}
        assert "provenance.json" in parts
    # a segment is lost exactly when its bundle is absent; bundles keep segment order
    assert sorted(named + lost) == _SEGMENTS and named == sorted(named)
    return lost


def _clear(workdir):
    for path in workdir.glob("prov_*"):
        shutil.rmtree(path) if path.is_dir() else path.unlink()


@pytest.fixture
def warm(tmp_path, monkeypatch, capsys):
    """A working directory with data/in.csv and data/same.csv, after one
    cold run that saved the digest index; returns a function that runs the
    reference command once, checks the disk, clears the bundles and
    returns the names of the lost segments."""
    workdir = (tmp_path / "work").resolve()
    (workdir / "data").mkdir(parents=True)
    for name in ("in.csv", "same.csv"):
        (workdir / "data" / name).write_text("x,y\n1,2\n")
    monkeypatch.chdir(workdir)
    assert run(_RUN) == 0
    _clear(workdir)

    def run_once():
        capsys.readouterr()
        status = run(_RUN)
        lost = _check_disk(workdir, status, capsys.readouterr().err)
        _clear(workdir)
        return lost

    return run_once


def _reference_counts(warm, monkeypatch):
    with monkeypatch.context() as patch:
        faults = _Faults(patch)
        assert warm() == []
    return faults.counts


@pytest.mark.parametrize("target", [f"{owner.__name__}.{name}" for owner, name in _FAULTABLE])
def test_each_failing_call_costs_only_its_own_bundle(warm, monkeypatch, target):
    calls = _reference_counts(warm, monkeypatch)[target]
    assert calls > 0
    for n in range(1, calls + 1):
        code = _CODES[n % len(_CODES)]
        with monkeypatch.context() as patch:
            faults = _Faults(patch, target, n, code)
            lost = warm()
        assert faults.failed_in is not None
        assert lost == [faults.failed_in], (target, n, errno.errorcode[code])


def test_the_reference_run_hashes_index_digests_as_written_and_links_repeats(
    warm, monkeypatch
):
    bundle_module = importlib.import_module("provwrap.bundle")
    real_hash = bundle_module.sha256_file
    written = []

    def hashing(source, copy_to=None):
        if copy_to is not None:
            written.append(copy_to.name)
        return real_hash(source, copy_to=copy_to)

    monkeypatch.setattr(bundle_module, "sha256_file", hashing)
    calls = _reference_counts(warm, monkeypatch)
    assert written == ["in.csv"]  # same.csv and the later bundles' inputs are links
    assert calls["os.link"] == 5
    assert calls["os.sendfile"] == 6  # out0..out2: one call copies, one finds the end


def test_a_refused_sendfile_is_hashed_as_written_and_its_bundle_is_whole(
    warm, monkeypatch
):
    bundle_module = importlib.import_module("provwrap.bundle")
    real_hash, real_sendfile = bundle_module.sha256_file, os.sendfile
    written, refused = [], []

    def hashing(source, copy_to=None):
        if copy_to is not None:
            written.append(copy_to.name)
        return real_hash(source, copy_to=copy_to)

    def sendfile(out_fd, in_fd, offset, count):
        if not refused:
            refused.append(offset)
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
        return real_sendfile(out_fd, in_fd, offset, count)

    monkeypatch.setattr(bundle_module, "sha256_file", hashing)
    monkeypatch.setattr(os, "sendfile", sendfile)
    assert warm() == []
    assert refused == [0]
    assert written == ["in.csv", "out0.txt"]
