"""Snapshot, diff and control-channel tests."""

import dataclasses
import fnmatch
import hashlib
import importlib
import json
import os
import random
import stat
import sys
import tempfile
import threading
import time
import types
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from provwrap import (
    ControlDirective,
    ControlParseError,
    DirectiveKind,
    EventKind,
    diff_snapshots,
    load_snapshot,
    parse_control_stream,
    save_snapshot,
    take_snapshot,
)
from provwrap.classify import DEFAULT_EXCLUDES
from provwrap.monitor import (
    _HASH_CHUNK,
    _HASH_THREAD_FROM,
    INDEX_VERSION,
    IndexEntry,
    matches_exclusion,
    parse_control_line,
    sha256_file,
    unchanged_since,
)

from conftest import is_normalized, only_normalized_exclusion_names, returns_within

monitor = importlib.import_module("provwrap.monitor")

# Verified against the sha256sum utility before implementation.
SHA256_HI = "8f434346648f6b96df89dda901c5176b10a6d83961dd3c1ac88b59b2dc327aa4"


class TestTakeSnapshot:
    def test_empty_directory(self, tmp_path):
        snap = take_snapshot(tmp_path)
        assert snap.entries == {}

    def test_single_file_size_and_digest(self, tmp_path):
        (tmp_path / "a.txt").write_text("hi")
        snap = take_snapshot(tmp_path)
        assert set(snap.entries) == {"a.txt"}
        size, _, digest, _, _ = snap.entries["a.txt"]
        assert size == 2
        assert digest == SHA256_HI

    def test_recursive_with_relative_keys(self, tmp_path):
        (tmp_path / "sub" / "deep").mkdir(parents=True)
        (tmp_path / "sub" / "deep" / "x.bin").write_bytes(b"\x00\x01")
        (tmp_path / "top.txt").write_text("t")
        snap = take_snapshot(tmp_path)
        assert set(snap.entries) == {"sub/deep/x.bin", "top.txt"}

    def test_exclusion_pattern_hides_provenance_dirs(self, tmp_path):
        (tmp_path / "prov_0").mkdir()
        (tmp_path / "prov_0" / "x").write_text("x")
        (tmp_path / "keep.txt").write_text("k")
        snap = take_snapshot(tmp_path, excludes=["prov_*/**"])
        assert set(snap.entries) == {"keep.txt"}

    def test_exclusion_matches_ancestors(self, tmp_path):
        (tmp_path / "prov_1" / "inputs").mkdir(parents=True)
        (tmp_path / "prov_1" / "inputs" / "y").write_text("y")
        snap = take_snapshot(tmp_path, excludes=["prov_*"])
        assert snap.entries == {}

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            take_snapshot(tmp_path / "nope")

    def test_unreadable_file_skipped_with_warning(self, tmp_path, monkeypatch, caplog):
        import provwrap.monitor as monitor_module

        (tmp_path / "fine.txt").write_text("ok")
        (tmp_path / "cursed.txt").write_text("no")
        real = monitor_module.sha256_file

        def flaky(path):
            if path.name == "cursed.txt":
                raise PermissionError(13, "Permission denied")
            return real(path)

        monkeypatch.setattr(monitor_module, "sha256_file", flaky)
        with caplog.at_level("WARNING"):
            snap = take_snapshot(tmp_path)
        assert set(snap.entries) == {"fine.txt"}
        assert any("cursed.txt" in record.message for record in caplog.records)

    def test_symlink_loop_skipped_silently(self, tmp_path, caplog):
        # like a dangling symlink, a loop names no file: it is not unreadable
        (tmp_path / "fine.txt").write_text("ok")
        os.symlink("loop", tmp_path / "loop")
        with caplog.at_level("WARNING"):
            snap = take_snapshot(tmp_path)
        assert set(snap.entries) == {"fine.txt"}
        assert caplog.records == []

    def test_a_file_swapped_for_a_fifo_before_its_hash_is_skipped(
        self, tmp_path, monkeypatch
    ):
        # the walk's stat saw a regular file; by the open it is a FIFO
        (tmp_path / "fine.txt").write_text("ok")
        swapped = tmp_path / "swapped.csv"
        swapped.write_text("x\n")
        real = monitor.sha256_file

        def swap_then_hash(path, *args, **kwargs):
            if Path(path) == swapped:
                swapped.unlink()
                os.mkfifo(swapped)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(monitor, "sha256_file", swap_then_hash)
        snap = returns_within(10, swapped, take_snapshot, tmp_path)
        assert set(snap.entries) == {"fine.txt"}


def _counted_tree(root):
    """a.txt, sub/b.txt, sub/deep/c.txt, sub/link -> sub/deep, a fifo, and
    two excluded directories with files two levels down."""
    (root / "sub" / "deep").mkdir(parents=True)
    (root / ".git" / "objects").mkdir(parents=True)
    (root / "prov_0" / "inputs").mkdir(parents=True)
    for rel in ["a.txt", "sub/b.txt", "sub/deep/c.txt", ".git/HEAD", ".git/objects/x",
                "prov_0/inputs/y"]:
        (root / rel).write_text(rel)
    (root / "sub" / "link").symlink_to(root / "sub" / "deep")
    os.mkfifo(root / "pipe")
    return (".git", "prov_*")


class TestSnapshotCounters:
    def test_each_listed_entry_is_tested_once_and_no_excluded_directory_is_listed(
        self, tmp_path, monkeypatch
    ):
        excludes = _counted_tree(tmp_path)
        tested, listed = [], []
        matches, scandir = monitor.matches_exclusion, os.scandir
        monkeypatch.setattr(
            monitor, "matches_exclusion",
            lambda rel, patterns: tested.append(rel) or matches(rel, patterns),
        )
        monkeypatch.setattr(os, "scandir", lambda path: listed.append(path) or scandir(path))
        snap = take_snapshot(tmp_path, excludes)
        assert list(snap.entries) == ["a.txt", "sub/b.txt", "sub/deep/c.txt"]
        assert sorted(tested) == [
            ".git", "a.txt", "pipe", "prov_0", "sub", "sub/b.txt", "sub/deep", "sub/deep/c.txt",
            "sub/link",
        ]
        assert listed == [str(tmp_path), str(tmp_path / "sub"), str(tmp_path / "sub" / "deep")]

    def test_a_warm_stamped_rewalk_of_an_unchanged_tree_hashes_nothing(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "root"
        root.mkdir()
        excludes = _counted_tree(root)
        first = take_snapshot(root, excludes, stamp_prefix="prov_stamp-")
        index = tmp_path / "root.index"
        save_snapshot(first, index)
        hashed = []
        monkeypatch.setattr(monitor, "sha256_file", hashed.append)
        for previous in (first, load_snapshot(index, root)):
            again = take_snapshot(root, excludes, previous=previous, stamp_prefix="prov_stamp-")
            assert again.entries == first.entries
        assert hashed == []


def _os_walk_snapshot(root, excludes):
    """The os.walk snapshot walk that take_snapshot replaced, kept as its
    oracle with the fnmatch exclusion oracle: [(relative path, entry)] in
    the order it found them."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root)
        prefix = "" if rel_dir == "." else rel_dir + "/"
        dirnames[:] = [n for n in sorted(dirnames) if not _fnmatch_oracle(prefix + n, excludes)]
        for name in sorted(filenames):
            rel = prefix + name
            if _fnmatch_oracle(rel, excludes):
                continue
            full = os.path.join(dirpath, name)
            try:
                st = os.stat(full)
            except OSError:
                continue
            if stat.S_ISREG(st.st_mode):
                digest = hashlib.sha256(Path(full).read_bytes()).hexdigest()
                found.append((rel, (st.st_size, st.st_mtime, digest, st.st_ctime_ns, st.st_ino)))
    return found


_TREE_NODE = st.tuples(
    st.lists(
        st.sampled_from(["a", "b.txt", "Z", ".git", "__pycache__", "m.pyc", "prov_0", "prov_x"]),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from(["file", "dir", "link_file", "link_dir", "dangling", "loop", "fifo"]),
)


def _build_tree(root, nodes):
    """Make each (components, kind) node whose path is free and whose parent
    can be a directory; t.dat and t.d/ are the targets of the links."""
    (root / "t.d").mkdir()
    (root / "t.d" / "in.dat").write_bytes(b"in")
    (root / "t.dat").write_bytes(b"t")
    for parts, kind in nodes:
        path = root.joinpath(*parts)
        if os.path.lexists(path):
            continue
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            continue  # an ancestor is a file, a fifo or a broken link
        if kind == "file":
            path.write_text("/".join(parts))
        elif kind == "dir":
            path.mkdir()
        elif kind == "fifo":
            os.mkfifo(path)
        else:
            target = {"link_file": root / "t.dat", "link_dir": root / "t.d",
                      "dangling": root / "missing", "loop": path}[kind]
            path.symlink_to(target)


class TestSnapshotWalkOracle:
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        nodes=st.lists(_TREE_NODE, max_size=12),
        excludes=st.sampled_from([DEFAULT_EXCLUDES + ("prov_*",), ("a/Z", "*.txt", "Z/*"), ()]),
    )
    def test_agrees_with_the_os_walk_oracle(self, tmp_path, nodes, excludes):
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        _build_tree(root, nodes)
        expected = _os_walk_snapshot(root, excludes)
        with only_normalized_exclusion_names():
            assert list(take_snapshot(root, excludes).entries.items()) == expected


_NAMES =["a.txt", "b.txt", "sub/c.txt", "sub/d.bin", "sub/deep/e.bin"]
_MUTATION = st.tuples(
    st.sampled_from(["same_size", "rename_over", "recreate", "chmod", "new_file"]),
    st.sampled_from(_NAMES),
    st.binary(min_size=0, max_size=12),
)


class TestSnapshotDigestReuse:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        initial=st.dictionaries(st.sampled_from(_NAMES), st.binary(max_size=12), min_size=1),
        mutations=st.lists(_MUTATION, max_size=6),
    )
    def test_reusing_snapshot_equals_fresh_snapshot(self, tmp_path, initial, mutations):
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        for name, data in initial.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)
        before = take_snapshot(root, stamp_prefix="prov_stamp-")
        touched = _mutate(root, mutations)

        reused = take_snapshot(root, previous=before, stamp_prefix="prov_stamp-")
        assert reused.entries == take_snapshot(root).entries
        for name in set(before.entries) - touched:
            assert reused.entries[name] is before.entries[name]
        # no entry came from an index, so every digest vouches for a copy
        for name, entry in reused.entries.items():
            assert reused.copy_proof(name) == (entry, reused.stamp_ns)

    def test_unchanged_file_shares_the_previous_entry(self, tmp_path):
        (tmp_path / "a.txt").write_text("same")
        before = take_snapshot(tmp_path, stamp_prefix="prov_stamp-")
        after = take_snapshot(tmp_path, previous=before)
        assert after.entries["a.txt"] is before.entries["a.txt"]

    def test_a_file_written_just_before_the_stamp_is_vouched_for(self, tmp_path):
        # No wait between the write and the snapshot: the stamp itself waits
        # until its ctime passes the tick the write may share.
        target = tmp_path / "out.bin"
        target.write_bytes(b"plot")
        snap = take_snapshot(tmp_path, ["prov_*"], stamp_prefix="prov_stamp-")
        assert unchanged_since(os.stat(target), *snap.copy_proof("out.bin"))
        target.write_bytes(b"PLOT")  # after the stamp: never trusted
        assert not unchanged_since(os.stat(target), *snap.copy_proof("out.bin"))

    def test_a_ctime_clock_that_does_not_move_keeps_the_first_stamp(
        self, tmp_path, monkeypatch
    ):
        # as on a filesystem whose ctime tick is seconds long
        seen = []
        real_fstat = os.fstat

        def recording(fd):
            st = real_fstat(fd)
            seen.append(st.st_ctime_ns)
            return st

        monkeypatch.setattr(monitor.os, "utime", lambda fd: None)
        monkeypatch.setattr(monitor.os, "fstat", recording)
        started = time.monotonic()
        stamp = monitor._stamp_ctime_ns(tmp_path, "prov_stamp-")
        assert time.monotonic() - started < monitor.STAMP_WAIT_S + 0.5
        assert len(seen) > 1 and set(seen) == {stamp}

    def test_a_wall_clock_ahead_of_the_stamp_lends_no_digest(self, tmp_path):
        # Two clocks: the index's stamp ties the file's ctime, and the index
        # also says the walk started 3 s after that tick, as a wall clock
        # running ahead of the filesystem's (an NFS server that lags) would.
        # Only the stamp may vouch for a digest, so the rewrite is read.
        root = tmp_path / "root"
        root.mkdir()
        target = root / "data.bin"
        target.write_bytes(b"old!")
        written = os.stat(target)
        before = take_snapshot(root, stamp_prefix="prov_stamp-")
        target.write_bytes(b"new!")
        os.utime(target, ns=(written.st_atime_ns, written.st_mtime_ns))
        # A filesystem with coarse ctimes could leave the whole stat key
        # unchanged across this same-size rewrite, in the stamp's own tick.
        now = os.stat(target)
        tied = dataclasses.replace(
            before,
            entries={"data.bin": before.entries["data.bin"][:3] + (now.st_ctime_ns, now.st_ino)},
            stamp_ns=now.st_ctime_ns,
        )
        index = tmp_path / "root.index"
        save_snapshot(tied, index)
        head, rest = index.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["started_ns"] = now.st_ctime_ns + 3 * 10**9
        body = json.dumps(header).encode() + b"\n" + rest[: rest.rindex(b"end\t")]
        index.write_bytes(body + b"end\t" + hashlib.sha256(body).hexdigest().encode() + b"\n")
        previous = load_snapshot(index, root)
        assert previous.stamp_ns == now.st_ctime_ns

        after = take_snapshot(root, previous=previous)
        assert after.entries["data.bin"][2] == hashlib.sha256(b"new!").hexdigest()
        assert [(e.path.name, e.kind) for e in diff_snapshots(previous, after)] == [
            ("data.bin", EventKind.MODIFIED)
        ]

    def test_change_in_the_stamp_tick_is_rehashed(self, tmp_path):
        target = tmp_path / "data.bin"
        target.write_bytes(b"old!")
        written = os.stat(target)
        before = take_snapshot(tmp_path, stamp_prefix="prov_stamp-")
        assert before.stamp_ns is not None
        target.write_bytes(b"new!")
        os.utime(target, ns=(written.st_atime_ns, written.st_mtime_ns))
        # Model a same-size rewrite that a coarse clock puts in the stamp's
        # own tick: the stat key is unchanged and equals the stamp's ctime.
        now = os.stat(target)
        before.entries["data.bin"] = before.entries["data.bin"][:3] + (now.st_ctime_ns, now.st_ino)
        tied = dataclasses.replace(before, stamp_ns=now.st_ctime_ns)

        after = take_snapshot(tmp_path, previous=tied)
        assert after.entries["data.bin"][2] == hashlib.sha256(b"new!").hexdigest()
        # one tick later the same stat key would be trusted: the tie is what
        # tells the two cases apart
        trusted = dataclasses.replace(before, stamp_ns=now.st_ctime_ns + 1)
        reused = take_snapshot(tmp_path, previous=trusted)
        assert reused.entries["data.bin"] is before.entries["data.bin"]

    def test_stamp_leaves_nothing_behind(self, tmp_path, monkeypatch):
        (tmp_path / "a.txt").write_text("a")
        made = []
        real_mkstemp = tempfile.mkstemp

        def recording(*args, **kwargs):
            fd, name = real_mkstemp(*args, **kwargs)
            made.append(name)
            return fd, name

        monkeypatch.setattr(monitor.tempfile, "mkstemp", recording)
        snap = take_snapshot(tmp_path, ["prov_*"], stamp_prefix="prov_stamp-")
        assert [Path(name).parent for name in made] == [tmp_path.resolve()]
        assert matches_exclusion(Path(made[0]).name, ["prov_*"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]
        assert set(snap.entries) == {"a.txt"}

    def test_unwritable_root_has_no_stamp_and_is_hashed_on_every_snapshot(
        self, tmp_path, monkeypatch
    ):
        names = ["a.txt", "sub/b.txt"]
        (tmp_path / "sub").mkdir()
        for name in names:
            (tmp_path / name).write_text(name)

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(monitor.tempfile, "mkstemp", refuse)
        real_hash = monitor.sha256_file
        hashed = []
        monkeypatch.setattr(
            monitor, "sha256_file", lambda path: hashed.append(path) or real_hash(path)
        )
        snapshots = [take_snapshot(tmp_path, stamp_prefix="prov_stamp-")]
        for _ in range(2):
            snapshots.append(
                take_snapshot(tmp_path, previous=snapshots[-1], stamp_prefix="prov_stamp-")
            )
        assert [snap.stamp_ns for snap in snapshots] == [None] * 3
        assert sorted(hashed) == sorted(tmp_path.resolve() / name for name in names * 3)
        assert all(snap.entries == snapshots[0].entries for snap in snapshots)

    def test_previous_snapshot_of_another_root_raises(self, tmp_path):
        (tmp_path / "r1").mkdir()
        (tmp_path / "r2").mkdir()
        with pytest.raises(ValueError, match="roots differ"):
            take_snapshot(tmp_path / "r2", previous=take_snapshot(tmp_path / "r1"))


def _mutate(root, mutations):
    """Apply the oracle's mutations; return the names they touched."""
    touched = set()
    for op, name, data in mutations:
        path = root / name
        touched.add(name)
        if op == "new_file" or not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
            continue
        old = os.stat(path)
        if op == "same_size":
            path.write_bytes(bytes(b ^ 0xFF for b in path.read_bytes()))
            os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns))
        elif op == "rename_over":
            spare = root / "spare.tmp"
            spare.write_bytes(bytes(b ^ 0x55 for b in path.read_bytes()))
            os.utime(spare, ns=(old.st_atime_ns, old.st_mtime_ns))
            os.replace(spare, path)
        elif op == "recreate":
            path.unlink()
            path.write_bytes(data)
        else:
            os.chmod(path, stat.S_IMODE(old.st_mode) ^ 0o020)
    return touched


# Names a file system can hold that the index must carry losslessly: TAB,
# LF, a backslash before "n", and a byte that is not UTF-8.
_ODD_NAMES = ["tab\there.txt", "line\nfeed.txt", "back\\nslash.txt", os.fsdecode(b"bad\xff.bin")]


def _snapshot_with_odd_names(root):
    (root / "sub").mkdir()
    for name in _ODD_NAMES:
        (root / name).write_bytes(name.encode("utf-8", "surrogateescape"))
        (root / "sub" / name).write_bytes(b"nested")
    return take_snapshot(root, stamp_prefix="prov_stamp-")


class TestDigestIndex:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        initial=st.dictionaries(st.sampled_from(_NAMES), st.binary(max_size=12), min_size=1),
        mutations=st.lists(_MUTATION, max_size=6),
    )
    def test_snapshot_from_a_loaded_index_equals_fresh_snapshot(
        self, tmp_path, initial, mutations
    ):
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        index = Path(tempfile.mkdtemp(dir=tmp_path)) / "root.index"
        for name, data in initial.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)
        before = take_snapshot(root, stamp_prefix="prov_stamp-")
        save_snapshot(before, index)
        touched = _mutate(root, mutations)

        loaded = load_snapshot(index, root)
        assert loaded == before
        reused = take_snapshot(root, previous=loaded, stamp_prefix="prov_stamp-")
        assert reused.entries == take_snapshot(root).entries
        for name in set(before.entries) - touched:
            assert reused.entries[name] is loaded.entries[name]
        # only a digest hashed in this process vouches for a copy
        for name, entry in reused.entries.items():
            assert (reused.copy_proof(name) is None) == (entry is loaded.entries.get(name))

    def test_only_digests_computed_in_this_process_are_fresh(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        for name in ("a.txt", "b.txt"):
            (root / name).write_text(name)
        cold = take_snapshot(root, stamp_prefix="prov_stamp-")
        for name in ("a.txt", "b.txt"):
            assert cold.copy_proof(name) == (cold.entries[name], cold.stamp_ns)
        index = tmp_path / "root.index"
        save_snapshot(cold, index)
        loaded = load_snapshot(index, root)
        assert all(type(entry) is IndexEntry for entry in loaded.entries.values())
        assert loaded.copy_proof("a.txt") is None

        (root / "b.txt").write_text("changed")
        warm = take_snapshot(root, previous=loaded, stamp_prefix="prov_stamp-")
        assert warm.entries["a.txt"] is loaded.entries["a.txt"]
        assert warm.copy_proof("a.txt") is None  # a reused entry keeps the index's mark
        assert warm.copy_proof("b.txt") == (warm.entries["b.txt"], warm.stamp_ns)
        again = take_snapshot(root, previous=cold, stamp_prefix="prov_stamp-")
        assert again.entries["a.txt"] is cold.entries["a.txt"]
        for name in ("a.txt", "b.txt"):
            assert again.copy_proof(name) == (again.entries[name], again.stamp_ns)
        assert take_snapshot(root).copy_proof("a.txt") is None  # no stamp

    def test_round_trip_keeps_odd_names_and_every_field(self, tmp_path):
        snap = _snapshot_with_odd_names(tmp_path)
        assert snap.stamp_ns is not None
        assert set(_ODD_NAMES) <= set(snap.entries)
        index = tmp_path.parent / f"{tmp_path.name}.index"
        save_snapshot(snap, index)
        loaded = load_snapshot(index, tmp_path)
        assert loaded == snap
        assert list(loaded.entries) == list(snap.entries)
        for rel, (size, mtime, _, ctime_ns, ino) in loaded.entries.items():
            st = os.stat(tmp_path / rel)
            assert (size, mtime, ctime_ns, ino) == (
                st.st_size, st.st_mtime, st.st_ctime_ns, st.st_ino
            )

    def test_loaded_index_lets_the_next_snapshot_reuse_every_digest(self, tmp_path):
        snap = _snapshot_with_odd_names(tmp_path)
        index = tmp_path.parent / f"{tmp_path.name}.index"
        save_snapshot(snap, index)
        again = take_snapshot(tmp_path, previous=load_snapshot(index, tmp_path))
        assert again.entries == snap.entries
        assert all(again.entries[rel] is not snap.entries[rel] for rel in snap.entries)

    def test_save_is_atomic_and_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        root = tmp_path / "root"
        root.mkdir()
        (root / "a.txt").write_text("a")
        cache = tmp_path / "cache"
        cache.mkdir()
        index = cache / "root.index"
        save_snapshot(take_snapshot(root), index)
        old = index.read_bytes()

        def broken(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(monitor.os, "replace", broken)
        with pytest.raises(OSError):
            save_snapshot(take_snapshot(root), index)
        assert [p.name for p in cache.iterdir()] == ["root.index"]
        assert index.read_bytes() == old
        assert stat.S_IMODE(os.stat(index).st_mode) == 0o600

    def _saved(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir(exist_ok=True)
        for i in range(3):
            (root / f"f{i}.txt").write_text(f"file {i}\n")
        index = tmp_path / "root.index"
        save_snapshot(take_snapshot(root, stamp_prefix="prov_stamp-"), index)
        return root, index

    @pytest.mark.parametrize(
        "damage, word",
        [
            # one bit of the last entry's sha256: only the checksum sees it
            (lambda data: data[:-80] + bytes([data[-80] ^ 1]) + data[-79:], "corrupt"),
            (lambda data: b"not json\n" + data.split(b"\n", 1)[1], "corrupt"),
            (lambda data: data.replace(b"\t", b" ", 1), "corrupt"),
            (lambda data: data + b"extra\n", "corrupt"),
            (lambda data: b"[" * (1 << 20) + data, "corrupt"),
            (lambda data: data[: data.rindex(b"end\t")], "truncated"),
            (lambda data: data[:-1], "truncated"),
            (lambda data: data[: len(data) // 2], "truncated"),
            (lambda data: b"", "truncated"),
        ],
        ids=["flipped-bit", "header", "entry", "trailing", "endless-header", "no-end",
             "cut-end", "half", "empty"],
    )
    def test_damaged_index_is_ignored_with_a_warning(self, tmp_path, caplog, damage, word):
        root, index = self._saved(tmp_path)
        index.write_bytes(damage(index.read_bytes()))
        with caplog.at_level("DEBUG", logger="provwrap.monitor"):
            assert load_snapshot(index, root) is None
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert word in warnings[0].getMessage()

    def test_a_fifo_in_place_of_the_index_does_not_block(self, tmp_path, caplog):
        root, index = self._saved(tmp_path)
        index.unlink()
        os.mkfifo(index)
        result = []
        reader = threading.Thread(target=lambda: result.append(load_snapshot(index, root)))
        with caplog.at_level("DEBUG", logger="provwrap.monitor"):
            reader.start()
            reader.join(timeout=10)
        blocked = reader.is_alive()
        if blocked:  # open the other end, so the thread can finish
            with open(index, "wb"):
                pass
            reader.join(timeout=10)
        assert not blocked
        assert result == [None]
        assert [r.levelname for r in caplog.records] == ["DEBUG"]

    def test_other_version_or_directory_is_ignored_at_debug_level(self, tmp_path, caplog):
        root, index = self._saved(tmp_path)
        header, body = index.read_bytes().split(b"\n", 1)
        newer = tmp_path / "newer.index"
        version = f'"version": {INDEX_VERSION}'.encode()
        assert version in header
        other = f'"version": {INDEX_VERSION + 1}'.encode()
        newer.write_bytes(header.replace(version, other) + b"\n" + body)
        other = tmp_path / "other"
        other.mkdir()
        with caplog.at_level("DEBUG", logger="provwrap.monitor"):
            assert load_snapshot(newer, root) is None
            assert load_snapshot(index, other) is None  # another path
            root.rename(tmp_path / "old-root")
            root.mkdir()  # the same path, made anew: another inode
            assert load_snapshot(index, root) is None
            assert load_snapshot(tmp_path / "missing.index", root) is None
            assert load_snapshot(tmp_path, root) is None  # not a file: a directory
        levels = [r.levelname for r in caplog.records]
        assert levels == ["DEBUG"] * 4
        assert take_snapshot(root).entries == {}


def _fnmatch_oracle(rel_path, patterns):
    """The fnmatch + PurePosixPath implementation the compiled matcher replaced."""
    if not patterns:
        return False
    candidates = [rel_path]
    parent = PurePosixPath(rel_path).parent
    while str(parent) not in (".", "/", ""):
        candidates.append(str(parent))
        parent = parent.parent
    return any(
        fnmatch.fnmatchcase(candidate, pattern)
        for candidate in candidates
        for pattern in patterns
    )


_COMPONENT = st.one_of(
    st.sampled_from(["a", "x", "ab", ".git", "__pycache__", "m.pyc", "prov_0", "prov_x"]),
    st.text(alphabet="abx._-", max_size=3).filter(lambda part: part not in ("", ".", "..")),
)
# The names matches_exclusion takes (see is_normalized): relative or absolute, or "."
_PATH = st.one_of(
    st.just("."),
    st.builds(
        lambda prefix, parts: prefix + "/".join(parts),
        st.sampled_from(["", "/"]),
        st.lists(_COMPONENT, min_size=1, max_size=5),
    ),
)
_PATTERNS = st.lists(
    st.sampled_from(
        ["*", "**", "?", "[!x]", "a*", "*/a", "?/*", "[!x]*", "*.pyc", "prov_*", "", "a/", "/a*"]
        + list(DEFAULT_EXCLUDES)
    ),
    max_size=4,
)


class TestMatchesExclusion:
    @settings(max_examples=500, deadline=None)
    @given(path=_PATH, patterns=_PATTERNS)
    def test_agrees_with_fnmatch_oracle(self, path, patterns):
        assert is_normalized(path)
        assert matches_exclusion(path, patterns) == _fnmatch_oracle(path, patterns)

    @given(path=_PATH)
    def test_default_excludes_plus_bundle_dirs(self, path):
        patterns = DEFAULT_EXCLUDES + ("prov_*",)
        assert matches_exclusion(path, patterns) == _fnmatch_oracle(path, patterns)


class TestDiffSnapshots:
    def test_identical_snapshots(self, tmp_path):
        (tmp_path / "a").write_text("a")
        snap = take_snapshot(tmp_path)
        assert diff_snapshots(snap, snap) == []

    def test_created_file(self, tmp_path):
        before = take_snapshot(tmp_path)
        (tmp_path / "example.png").write_bytes(b"\x89PNG")
        after = take_snapshot(tmp_path)
        events = diff_snapshots(before, after)
        assert [(e.path.name, e.kind) for e in events] == [
            ("example.png", EventKind.CREATED)
        ]

    def test_created_modified_removed_ordering(self, tmp_path):
        # before {a, b}, after {b', c}: Created c, Modified b, Removed a
        (tmp_path / "a").write_text("a1")
        (tmp_path / "b").write_text("b1")
        before = take_snapshot(tmp_path)
        (tmp_path / "a").unlink()
        (tmp_path / "b").write_text("b2")
        (tmp_path / "c").write_text("c1")
        after = take_snapshot(tmp_path)
        events = diff_snapshots(before, after)
        assert [(e.path.name, e.kind) for e in events] == [
            ("c", EventKind.CREATED),
            ("b", EventKind.MODIFIED),
            ("a", EventKind.REMOVED),
        ]

    def test_mtime_change_without_content_change_is_not_modified(self, tmp_path):
        f = tmp_path / "same.txt"
        f.write_text("stable")
        before = take_snapshot(tmp_path)
        f.write_text("stable")  # rewrite same bytes, mtime moves
        after = take_snapshot(tmp_path)
        assert diff_snapshots(before, after) == []

    def test_mismatched_roots_raise(self, tmp_path):
        (tmp_path / "r1").mkdir()
        (tmp_path / "r2").mkdir()
        with pytest.raises(ValueError, match="roots differ"):
            diff_snapshots(
                take_snapshot(tmp_path / "r1"), take_snapshot(tmp_path / "r2")
            )

    def test_agrees_with_bruteforce_oracle_on_random_trees(self, tmp_path):
        rng = random.Random(1107)
        for trial in range(40):
            root = tmp_path / f"t{trial}"
            root.mkdir()
            names = [f"f{i}.dat" for i in range(rng.randint(0, 6))]
            for name in names:
                (root / name).write_bytes(rng.randbytes(rng.randint(0, 32)))
            before = take_snapshot(root)
            oracle_before = {
                p.name: (root / p.name).read_bytes() for p in root.iterdir()
            }
            for name in names:
                roll = rng.random()
                if roll < 0.3:
                    (root / name).unlink()
                elif roll < 0.6:
                    (root / name).write_bytes(rng.randbytes(rng.randint(0, 32)))
            for i in range(rng.randint(0, 2)):
                (root / f"new{i}.dat").write_bytes(rng.randbytes(8))
            after = take_snapshot(root)

            oracle_now = {p.name: p.read_bytes() for p in root.iterdir()}
            created = sorted(set(oracle_now) - set(oracle_before))
            removed = sorted(set(oracle_before) - set(oracle_now))
            modified = sorted(
                n
                for n in set(oracle_now) & set(oracle_before)
                if oracle_now[n] != oracle_before[n]
            )
            expected = (
                [(n, EventKind.CREATED) for n in created]
                + [(n, EventKind.MODIFIED) for n in modified]
                + [(n, EventKind.REMOVED) for n in removed]
            )
            got = [(e.path.name, e.kind) for e in diff_snapshots(before, after)]
            assert got == expected, f"trial {trial}"


class TestControlStream:
    def test_input_line(self):
        directives = parse_control_stream(["INPUT\tresults.csv"])
        assert directives == [
            ControlDirective(kind=DirectiveKind.INPUT, path="results.csv", index=0)
        ]

    def test_empty_stream(self):
        assert parse_control_stream([]) == []
        assert parse_control_stream(["", ""]) == []

    def test_untrack_then_end_run(self):
        directives = parse_control_stream(["UNTRACK\ttemp.bin", "END_RUN\tphase2"])
        assert directives == [
            ControlDirective(kind=DirectiveKind.UNTRACK, path="temp.bin", index=0),
            ControlDirective(kind=DirectiveKind.END_RUN, run_name="phase2", index=1),
        ]

    def test_end_run_without_name(self):
        directives = parse_control_stream(["END_RUN"])
        assert directives[0].run_name is None

    def test_blank_lines_consume_line_indices(self):
        directives = parse_control_stream(["", "OUTPUT\ta.png", "", "INPUT\tb.csv"])
        assert [(d.kind, d.index) for d in directives] == [
            (DirectiveKind.OUTPUT, 1),
            (DirectiveKind.INPUT, 3),
        ]

    def test_trailing_newlines_are_stripped(self):
        directives = parse_control_stream(["INPUT\tx.csv\n"])
        assert directives[0].path == "x.csv"

    @pytest.mark.parametrize(
        "line, lineno",
        [
            ("FROB\tx", 1),
            ("INPUT", 1),
            ("OUTPUT\t", 1),
            ("input\tx.csv", 1),
        ],
    )
    def test_protocol_violations_name_the_line(self, line, lineno):
        with pytest.raises(ControlParseError, match=f"line {lineno}"):
            parse_control_line(line, lineno - 1)

    def test_error_line_number_counts_from_one(self):
        with pytest.raises(ControlParseError, match="line 3"):
            parse_control_line("NOPE", 2)

    def test_undecodable_bytes_name_the_line(self):
        line = b"INPUT\tbad\xff.csv".decode("utf-8", errors="surrogateescape")
        with pytest.raises(ControlParseError, match="line 4 is not valid UTF-8"):
            parse_control_line(line, 3)

    def test_a_rejected_line_is_skipped_and_keeps_its_index(self, caplog):
        with caplog.at_level("WARNING", logger="provwrap.monitor"):
            directives = parse_control_stream(["INPUT\ta", "NOPE\tx", "OUTPUT\tb"])
        assert [(d.kind, d.path, d.index) for d in directives] == [
            (DirectiveKind.INPUT, "a", 0),
            (DirectiveKind.OUTPUT, "b", 2),
        ]
        assert [r.getMessage() for r in caplog.records] == [
            "control line 2: unknown verb 'NOPE'; the line was ignored"
        ]

    def test_round_trip_through_canonical_line_form(self):
        cases = [
            ControlDirective(kind=DirectiveKind.INPUT, path="a b.csv"),
            ControlDirective(kind=DirectiveKind.OUTPUT, path="plot.png"),
            ControlDirective(kind=DirectiveKind.UNTRACK, path="tmp.bin"),
            ControlDirective(kind=DirectiveKind.END_RUN),
            ControlDirective(kind=DirectiveKind.END_RUN, run_name="phase2"),
        ]
        for directive in cases:
            assert parse_control_stream([directive.to_line()]) == [directive]


# sizes around the read size and the second-thread threshold
_HASH_SIZES = sorted({
    0, 1, _HASH_CHUNK - 1, _HASH_CHUNK, _HASH_CHUNK + 1,
    _HASH_THREAD_FROM - _HASH_CHUNK, _HASH_THREAD_FROM, _HASH_THREAD_FROM + 1,
    _HASH_THREAD_FROM + _HASH_CHUNK,
})


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


class TestSha256File:
    @settings(max_examples=40, deadline=None)
    @given(
        size=st.sampled_from(_HASH_SIZES),
        seed=st.integers(0, 2**32 - 1),
        moved=st.integers(0, 2 * _HASH_THREAD_FROM),
    )
    def test_a_path_and_a_descriptor_hash_like_hashlib(self, size, seed, moved):
        data = random.Random(seed).randbytes(size)
        expected = hashlib.sha256(data).hexdigest()
        with tempfile.TemporaryDirectory() as tmp:
            source = Path(tmp) / "data.bin"
            source.write_bytes(data)
            copy = Path(tmp) / "copy.bin"
            assert sha256_file(source) == expected
            assert sha256_file(str(source)) == expected
            fd = os.open(source, os.O_RDONLY)
            try:
                offset = os.lseek(fd, moved, os.SEEK_SET)  # past the end is allowed
                assert sha256_file(fd) == expected
                assert sha256_file(fd, copy_to=copy) == expected
                assert os.lseek(fd, 0, os.SEEK_CUR) == offset
            finally:
                os.close(fd)
            assert copy.read_bytes() == data

    def test_eight_threads_at_once_under_a_tiny_switch_interval(self, tmp_path):
        sizes = [_HASH_THREAD_FROM + _HASH_CHUNK // 2 + 977 * k for k in range(8)]
        files = []
        for k, size in enumerate(sizes):
            data = random.Random(k).randbytes(size)
            (tmp_path / f"in{k}.bin").write_bytes(data)
            files.append((tmp_path / f"in{k}.bin", data, hashlib.sha256(data).hexdigest()))
        threads_before = threading.enumerate()
        start = threading.Barrier(len(files))
        deadline = time.monotonic() + 1  # seconds
        failures, rounds = [], []

        def hammer(k):
            source, data, expected = files[k]
            copy = tmp_path / f"copy{k}.bin"
            done = 0
            try:
                start.wait()
                while not done or time.monotonic() < deadline:
                    assert sha256_file(source) == expected
                    with open(source, "rb") as handle:
                        assert sha256_file(handle.fileno(), copy_to=copy) == expected
                    assert copy.read_bytes() == data
                    copy.unlink()
                    done += 1
            except BaseException as exc:
                failures.append(exc)
            rounds.append(done)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(k,)) for k in range(len(files))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(rounds) == len(files) and min(rounds) >= 1
        assert threading.enumerate() == threads_before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("k", [1, 3])
    def test_an_error_in_the_hashing_thread_is_raised_in_the_caller(
        self, tmp_path, monkeypatch, k
    ):
        data = random.Random(k).randbytes(_HASH_THREAD_FROM + 3 * _HASH_CHUNK)
        source = tmp_path / "in.bin"
        source.write_bytes(data)
        real_sha256 = hashlib.sha256

        class FailingDigest:
            def __init__(self):
                self.digest, self.updates = real_sha256(), 0

            def update(self, chunk):
                self.updates += 1
                if self.updates == k:
                    raise MemoryError("injected")
                self.digest.update(chunk)

        monkeypatch.setattr(monitor, "hashlib", types.SimpleNamespace(sha256=FailingDigest))
        threads_before, fds_before = threading.enumerate(), _open_fds()
        with pytest.raises(MemoryError, match="injected"):
            sha256_file(source, copy_to=tmp_path / "copy.bin")
        assert threading.enumerate() == threads_before
        assert _open_fds() == fds_before

    def test_a_fifo_is_refused_without_waiting_for_a_writer(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def refused(path):
            with pytest.raises(OSError, match="not a regular file"):
                sha256_file(path)
            return True

        assert returns_within(10, fifo, refused, fifo)
