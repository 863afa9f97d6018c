"""Bundle directory allocation and writing."""

import errno
import hashlib
import json
import os
import random
import stat
import threading

import pytest

from provwrap import (
    BundleError,
    Category,
    ControlDirective,
    DirectiveKind,
    EventKind,
    FileEvent,
    RunConfig,
    RunSegment,
    allocate_run_dir,
    classify,
    write_bundle,
)

from provwrap.monitor import _HASH_CHUNK, _HASH_THREAD_FROM

from conftest import make_meta, make_record


class TestAllocateRunDir:
    def test_first_allocation(self, tmp_path):
        assert allocate_run_dir("prov", tmp_path).name == "prov_0"

    def test_smallest_unused_suffix(self, tmp_path):
        (tmp_path / "prov_0").mkdir()
        (tmp_path / "prov_1").mkdir()
        assert allocate_run_dir("prov", tmp_path).name == "prov_2"

    def test_fills_gap(self, tmp_path):
        (tmp_path / "prov_0").mkdir()
        (tmp_path / "prov_2").mkdir()
        assert allocate_run_dir("prov", tmp_path).name == "prov_1"

    def test_start_continues_above_a_taken_k(self, tmp_path):
        (tmp_path / "prov_0").mkdir()
        (tmp_path / "prov_2").mkdir()
        assert allocate_run_dir("prov", tmp_path, start=1).name == "prov_1"
        assert allocate_run_dir("prov", tmp_path, start=2).name == "prov_3"
        assert allocate_run_dir("prov", tmp_path, 4).name == "prov_4"
        # nothing below start is probed, free or not
        assert allocate_run_dir("prov", tmp_path, start=7).name == "prov_7"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"prov_{k}" for k in (0, 1, 2, 3, 4, 7)
        ]

    def test_directory_actually_created(self, tmp_path):
        path = allocate_run_dir("prov", tmp_path)
        assert path.is_dir()

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores directory modes")
    def test_unwritable_parent(self, tmp_path):
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o555)
        try:
            with pytest.raises(OSError):
                allocate_run_dir("prov", locked)
        finally:
            locked.chmod(0o755)

    def test_missing_parent_raises(self, tmp_path):
        with pytest.raises(OSError):
            allocate_run_dir("prov", tmp_path / "nonexistent")

    def test_concurrent_allocations_never_collide(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=8) as pool:
            dirs = list(pool.map(lambda _: allocate_run_dir("prov", tmp_path), range(16)))
        assert len({d.name for d in dirs}) == 16
        assert sorted(d.name for d in dirs) == sorted(f"prov_{k}" for k in range(16))


def _segment_from_tree(workdir, names_and_categories):
    records = []
    for name, category in names_and_categories:
        path = workdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        content = f"content of {name}\n".encode()
        path.write_bytes(content)
        top = {
            Category.INPUT: "inputs",
            Category.OUTPUT: "outputs",
            Category.SOURCE: "src",
            Category.ENVIRONMENT: "inputs",
        }[category]
        records.append(
            make_record(
                f"{top}/{name}",
                original_path=path,
                category=category,
                sha256=hashlib.sha256(content).hexdigest(),
                size_bytes=len(content),
            )
        )
    return RunSegment(name="experiment_run", records=records)


class TestWriteBundle:
    def test_sample_bundle_contents(self, tmp_path, config):
        workdir = tmp_path / "work"
        workdir.mkdir()
        segment = _segment_from_tree(
            workdir,
            [
                ("results.csv", Category.INPUT),
                ("example.png", Category.OUTPUT),
                ("examples/main.py", Category.SOURCE),
                ("requirements.txt", Category.ENVIRONMENT),
            ],
        )
        meta = make_meta()
        bundle_dir = allocate_run_dir("prov", tmp_path)
        report = write_bundle(segment, meta, config, bundle_dir)

        assert (bundle_dir / "inputs/results.csv").is_file()
        assert (bundle_dir / "outputs/example.png").is_file()
        assert (bundle_dir / "src/examples/main.py").is_file()
        assert (bundle_dir / "inputs/requirements.txt").is_file()
        assert (bundle_dir / "provenance.json").is_file()
        assert (bundle_dir / "ro-crate-metadata.json").is_file()
        assert not (bundle_dir / "provenance.dot").exists()
        assert sorted(report.files_written) == sorted(
            [
                "inputs/results.csv",
                "outputs/example.png",
                "src/examples/main.py",
                "inputs/requirements.txt",
                "provenance.json",
                "ro-crate-metadata.json",
            ]
        )
        assert report.bytes_copied == sum(
            r.size_bytes for r in segment.records
        )

    def test_copies_are_byte_exact(self, tmp_path, config):
        workdir = tmp_path / "work"
        workdir.mkdir()
        segment = _segment_from_tree(workdir, [("data.bin", Category.INPUT)])
        meta = make_meta()
        bundle_dir = allocate_run_dir("prov", tmp_path)
        write_bundle(segment, meta, config, bundle_dir)
        assert (bundle_dir / "inputs/data.bin").read_bytes() == (
            workdir / "data.bin"
        ).read_bytes()

    def test_zero_record_segment(self, tmp_path, config):
        segment = RunSegment(name="experiment_run")
        meta = make_meta()
        bundle_dir = allocate_run_dir("prov", tmp_path)
        write_bundle(segment, meta, config, bundle_dir)
        on_disk = sorted(p.name for p in bundle_dir.iterdir())
        assert on_disk == ["provenance.json", "ro-crate-metadata.json"]

    def test_non_copied_record_stays_out_of_bundle(self, tmp_path, config):
        workdir = tmp_path / "work"
        workdir.mkdir()
        segment = _segment_from_tree(workdir, [("big.bin", Category.INPUT)])
        segment.records[0].copied = False
        segment.records[0].skip_reason = "size_threshold"
        meta = make_meta()
        bundle_dir = allocate_run_dir("prov", tmp_path)
        write_bundle(segment, meta, config, bundle_dir)
        assert not (bundle_dir / "inputs/big.bin").exists()
        payload = json.loads((bundle_dir / "provenance.json").read_bytes())
        entity = payload["entity"]["yProv4DA:inputs/big.bin"]
        assert entity["yprov:copied"] == "false"

    def test_vanished_file_downgraded_with_warning(self, tmp_path, config):
        workdir = tmp_path / "work"
        workdir.mkdir()
        segment = _segment_from_tree(workdir, [("fleeting.csv", Category.INPUT)])
        (workdir / "fleeting.csv").unlink()
        meta = make_meta()
        bundle_dir = allocate_run_dir("prov", tmp_path)
        report = write_bundle(segment, meta, config, bundle_dir)
        assert any("vanished" in w for w in report.warnings)
        payload = json.loads((bundle_dir / "provenance.json").read_bytes())
        entity = payload["entity"]["yProv4DA:inputs/fleeting.csv"]
        assert entity["yprov:copied"] == "false"
        assert entity["yprov:skip_reason"] == "vanished"
        crate = json.loads((bundle_dir / "ro-crate-metadata.json").read_bytes())
        parts = [p["@id"] for p in crate["@graph"][1]["hasPart"]]
        assert parts == ["provenance.json"]

    def test_digest_mismatch_is_hard_error(self, tmp_path, config):
        workdir = tmp_path / "work"
        workdir.mkdir()
        segment = _segment_from_tree(workdir, [("racy.csv", Category.INPUT)])
        segment.records[0].sha256 = "0" * 64  # simulate concurrent modification
        meta = make_meta()
        bundle_dir = allocate_run_dir("prov", tmp_path)
        with pytest.raises(BundleError, match="digest mismatch"):
            write_bundle(segment, meta, config, bundle_dir)

    def test_optional_outputs_follow_flags(self, tmp_path, monkeypatch):
        import provwrap.bundle as bundle_module

        monkeypatch.setattr(
            bundle_module, "render_svg", lambda dot_text: b"<?xml fake svg"
        )
        config = RunConfig(create_dot_file=True, create_svg_file=True, create_json_file=True)
        segment = RunSegment(name="experiment_run")
        meta = make_meta()
        bundle_dir = allocate_run_dir("prov", tmp_path)
        write_bundle(segment, meta, config, bundle_dir)
        assert (bundle_dir / "provenance.dot").is_file()
        assert (bundle_dir / "provenance.svg").read_bytes() == b"<?xml fake svg"
        sibling = tmp_path / "prov_0.provenance.json"
        assert sibling.is_file()
        assert sibling.read_bytes() == (bundle_dir / "provenance.json").read_bytes()

    def test_rocrate_can_be_disabled(self, tmp_path):
        config = RunConfig(create_rocrate=False)
        segment = RunSegment(name="experiment_run")
        meta = make_meta()
        bundle_dir = allocate_run_dir("prov", tmp_path)
        write_bundle(segment, meta, config, bundle_dir)
        assert not (bundle_dir / "ro-crate-metadata.json").exists()

    @pytest.mark.parametrize("failure", ["digest", "rename"])
    def test_a_failed_bundle_leaves_its_reservation_empty(
        self, tmp_path, monkeypatch, failure
    ):
        workdir = tmp_path / "work"
        workdir.mkdir()
        segment = _segment_from_tree(
            workdir, [("a.csv", Category.INPUT), ("b.csv", Category.INPUT)]
        )
        if failure == "digest":
            segment.records[1].sha256 = "0" * 64
        else:  # every file written, the .provenance.json copy too, then publishing fails
            def refuse(source, destination):  # as os.rename raises, with both names
                source, destination = os.fspath(source), os.fspath(destination)
                raise OSError(errno.EXDEV, "Invalid cross-device link", source, None, destination)

            monkeypatch.setattr(os, "rename", refuse)
        bundle_dir = allocate_run_dir("prov", tmp_path)
        with pytest.raises(BundleError if failure == "digest" else OSError) as raised:
            write_bundle(segment, make_meta(), RunConfig(create_json_file=True), bundle_dir)
        assert "_tmp-" not in str(raised.value)  # files are named by their place in the bundle
        assert list(bundle_dir.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prov_0", "work"]

    def test_the_published_bundle_keeps_the_reservation_mode(self, tmp_path, config):
        bundle_dir = allocate_run_dir("prov", tmp_path)
        os.chmod(bundle_dir, 0o751)
        write_bundle(RunSegment(name="x"), make_meta(), config, bundle_dir)
        assert stat.S_IMODE(os.stat(bundle_dir).st_mode) == 0o751
        assert (bundle_dir / "provenance.json").is_file()

    def test_dirty_bundle_dir_rejected(self, tmp_path, config):
        bundle_dir = allocate_run_dir("prov", tmp_path)
        (bundle_dir / "leftover").write_text("x")
        meta = make_meta()
        with pytest.raises(BundleError, match="not empty"):
            write_bundle(RunSegment(name="x"), meta, config, bundle_dir)

    def test_listed_files_all_exist(self, tmp_path, config):
        workdir = tmp_path / "work"
        workdir.mkdir()
        segment = _segment_from_tree(
            workdir, [("a.csv", Category.INPUT), ("b.png", Category.OUTPUT)]
        )
        meta = make_meta()
        bundle_dir = allocate_run_dir("prov", tmp_path)
        report = write_bundle(segment, meta, config, bundle_dir)
        for rel in report.files_written:
            assert (bundle_dir / rel).is_file()
        assert len(set(report.files_written)) == len(report.files_written)

    def test_copied_record_without_digest_is_refused_before_any_copy(
        self, tmp_path, config
    ):
        workdir = tmp_path / "work"
        workdir.mkdir()
        segment = _segment_from_tree(
            workdir, [("a.csv", Category.INPUT), ("b.png", Category.OUTPUT)]
        )
        segment.records[1].sha256 = None  # a copy the bundle could not verify
        bundle_dir = allocate_run_dir("prov", tmp_path)
        with pytest.raises(BundleError, match="outputs/b.png"):
            write_bundle(segment, make_meta(), config, bundle_dir)
        assert list(bundle_dir.iterdir()) == []

    def test_later_segment_is_named_after_itself(self, tmp_path, config):
        workdir = (tmp_path / "work").resolve()
        workdir.mkdir()
        for name in ("a.csv", "b.csv"):
            (workdir / name).write_text(f"{name}\n")
        segments = classify(
            [
                FileEvent(path=workdir / "a.csv", kind=EventKind.READ_INTENT),
                ControlDirective(kind=DirectiveKind.END_RUN),
                FileEvent(path=workdir / "b.csv", kind=EventKind.READ_INTENT),
            ],
            config,
            workdir,
        )
        assert [s.name for s in segments] == ["experiment_run", "experiment_run_1"]
        bundle_dir = allocate_run_dir("prov", tmp_path)
        write_bundle(segments[1], make_meta(), config, bundle_dir)
        payload = json.loads((bundle_dir / "provenance.json").read_bytes())
        assert list(payload["activity"]) == ["yProv4DA:experiment_run_1"]
        crate = json.loads((bundle_dir / "ro-crate-metadata.json").read_bytes())
        assert crate["@graph"][1]["name"] == "experiment_run_1"


def _proved_segment(workdir, stamp_after_ctime):
    """One output record whose proof says its digest was computed this run,
    from a walk stamped stamp_after_ctime ns after the file's ctime."""
    segment = _segment_from_tree(workdir, [("chart.png", Category.OUTPUT)])
    record = segment.records[0]
    st = os.stat(record.original_path)
    record.proof = (
        (st.st_size, st.st_mtime, record.sha256, st.st_ctime_ns, st.st_ino),
        st.st_ctime_ns + stamp_after_ctime,
    )
    return segment


def _rewrite_keeping_size_and_mtime(path):
    st = os.stat(path)
    path.write_bytes(path.read_bytes().upper())
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


class TestCopyCheck:
    """When write_bundle reads a copy back to check it against the digest."""

    @pytest.mark.parametrize(
        "stamp_after_ctime, reads", [(1, 0), (0, 1)], ids=["older", "tie"]
    )
    def test_a_copy_is_read_back_unless_its_source_predates_the_stamp(
        self, tmp_path, config, monkeypatch, stamp_after_ctime, reads
    ):
        import provwrap.bundle as bundle_module

        workdir = tmp_path / "work"
        workdir.mkdir()
        segment = _proved_segment(workdir, stamp_after_ctime)
        hashed = []
        real = bundle_module.sha256_file
        monkeypatch.setattr(
            bundle_module,
            "sha256_file",
            lambda source, copy_to=None: hashed.append(source) or real(source, copy_to=copy_to),
        )
        bundle_dir = allocate_run_dir("prov", tmp_path)
        report = write_bundle(segment, make_meta(), config, bundle_dir)
        assert len(hashed) == reads
        assert (bundle_dir / "outputs/chart.png").read_bytes() == (
            workdir / "chart.png"
        ).read_bytes()
        assert report.bytes_copied == segment.records[0].size_bytes

    @pytest.mark.parametrize("refusal", ["EINVAL", "ENOSYS", "ENOTSOCK"])
    def test_a_copy_sendfile_refuses_is_hashed_as_it_is_written(
        self, tmp_path, config, monkeypatch, refusal
    ):
        import provwrap.bundle as bundle_module

        workdir = tmp_path / "work"
        workdir.mkdir()
        segment = _proved_segment(workdir, 1)  # a proof: sendfile is tried first
        refused, hashed = [], []

        def refuse(*args):
            refused.append(args)
            raise OSError(getattr(errno, refusal), refusal)

        real = bundle_module.sha256_file
        monkeypatch.setattr(os, "sendfile", refuse)
        monkeypatch.setattr(
            bundle_module,
            "sha256_file",
            lambda source, copy_to=None: hashed.append((source, copy_to))
            or real(source, copy_to=copy_to),
        )
        bundle_dir = allocate_run_dir("prov", tmp_path)
        write_bundle(segment, make_meta(), config, bundle_dir)
        assert len(refused) == 1
        assert len(hashed) == 1
        source, copy_to = hashed[0]
        assert isinstance(source, int) and copy_to is not None
        assert (bundle_dir / "outputs/chart.png").read_bytes() == (
            workdir / "chart.png"
        ).read_bytes()

    @pytest.mark.parametrize("when", ["before", "during"])
    def test_a_source_changed_after_its_digest_is_caught(
        self, tmp_path, config, monkeypatch, when
    ):
        import provwrap.bundle as bundle_module

        workdir = tmp_path / "work"
        workdir.mkdir()
        segment = _proved_segment(workdir, 1)
        source = segment.records[0].original_path
        if when == "before":
            _rewrite_keeping_size_and_mtime(source)
        else:
            real_copy = bundle_module._copy_from

            def rewrite_then_copy(fd, destination):
                _rewrite_keeping_size_and_mtime(source)
                real_copy(fd, destination)

            monkeypatch.setattr(bundle_module, "_copy_from", rewrite_then_copy)
        bundle_dir = allocate_run_dir("prov", tmp_path)
        with pytest.raises(BundleError, match="digest mismatch"):
            write_bundle(segment, make_meta(), config, bundle_dir)

    @pytest.mark.parametrize("replacement", ["fifo", "directory"])
    def test_a_source_that_is_no_longer_a_file_is_vanished(
        self, tmp_path, config, replacement
    ):
        workdir = tmp_path / "work"
        workdir.mkdir()
        segment = _segment_from_tree(workdir, [("fleeting.csv", Category.INPUT)])
        source = workdir / "fleeting.csv"
        source.unlink()
        if replacement == "fifo":
            os.mkfifo(source)  # opening it must not wait for a writer
        else:
            source.mkdir()
        bundle_dir = allocate_run_dir("prov", tmp_path)
        report = write_bundle(segment, make_meta(), config, bundle_dir)
        assert any("vanished" in w for w in report.warnings)
        assert segment.records[0].skip_reason == "vanished"
        assert report.bytes_copied == 0
        assert not (bundle_dir / "inputs").exists()


class _FullAt:
    """A file opened for writing whose k-th write fails with ENOSPC."""

    def __init__(self, handle, k):
        self.handle, self.left = handle, k

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        self.left -= 1
        if not self.left:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.handle.write(data)


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestPipelinedCopyFaults:
    """A fault at chunk k of a copy hashed as it is written, on a second
    thread, leaves no bundle, temporary, thread or descriptor behind."""

    CHUNKS = 7

    @pytest.fixture
    def segment(self, tmp_path):
        # a digest from the index (no proof), so the copy is hashed as written
        workdir = tmp_path / "work"
        workdir.mkdir()
        size = (self.CHUNKS - 1) * _HASH_CHUNK + 12_345
        assert size > _HASH_THREAD_FROM
        data = random.Random(size).randbytes(size)
        source = workdir / "big.bin"
        source.write_bytes(data)
        record = make_record(
            "outputs/big.bin",
            original_path=source,
            category=Category.OUTPUT,
            sha256=hashlib.sha256(data).hexdigest(),
            size_bytes=size,
        )
        return RunSegment(name="experiment_run", records=[record])

    def _fails_leaving_nothing(self, tmp_path, config, segment, error, match):
        bundle_dir = allocate_run_dir("prov", tmp_path)
        threads, fds = threading.enumerate(), _open_fds()
        with pytest.raises(error, match=match):
            write_bundle(segment, make_meta(), config, bundle_dir)
        assert list(bundle_dir.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prov_0", "work"]
        assert threading.enumerate() == threads
        assert _open_fds() == fds

    @pytest.mark.parametrize("k", [1, 4, CHUNKS])
    def test_enospc_on_the_copy(self, tmp_path, config, monkeypatch, segment, k):
        import provwrap.monitor as monitor_module

        def opening(path, mode="r", *args, **kwargs):
            handle = open(path, mode, *args, **kwargs)
            return _FullAt(handle, k) if "w" in mode else handle

        monkeypatch.setattr(monitor_module, "open", opening, raising=False)
        self._fails_leaving_nothing(tmp_path, config, segment, OSError, "No space left")

    @pytest.mark.parametrize("k", [1, 4, CHUNKS])
    def test_eio_on_the_source(self, tmp_path, config, monkeypatch, segment, k):
        real_preadv, reads = os.preadv, []

        def failing(fd, buffers, offset):
            reads.append(offset)
            if len(reads) == k:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return real_preadv(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", failing)
        self._fails_leaving_nothing(tmp_path, config, segment, OSError, "Input/output error")
        assert reads[-1] == (k - 1) * _HASH_CHUNK

    @pytest.mark.parametrize("k", [2, 4, CHUNKS])
    def test_a_source_rewritten_between_two_chunks(
        self, tmp_path, config, monkeypatch, segment, k
    ):
        source = segment.records[0].original_path
        real_preadv, reads = os.preadv, []

        def rewriting(fd, buffers, offset):
            reads.append(offset)
            if len(reads) == k:  # chunks 1 to k - 1 are hashed and copied
                data = source.read_bytes()
                source.write_bytes(data[1:] + data[:1])
            return real_preadv(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", rewriting)
        self._fails_leaving_nothing(tmp_path, config, segment, BundleError, "digest mismatch")
