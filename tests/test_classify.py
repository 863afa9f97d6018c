"""Classification: merging events and directives into artifact records."""

import dataclasses
import hashlib
import importlib
import os
import random
import tempfile
from collections import Counter
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provwrap import (
    ArtifactRecord,
    Category,
    ControlDirective,
    DirectiveKind,
    EventKind,
    FileEvent,
    InputCopies,
    LoggedBy,
    RunConfig,
    apply_size_threshold,
    build_document,
    classify,
    parse_control_stream,
    parse_prov_json,
    to_prov_json,
    validate,
)

from provwrap.classify import locate, unify_timeline, watched_roots
from provwrap.cli import build_arg_parser

from conftest import make_meta, make_record, only_normalized_exclusion_names, returns_within


def _event(path, kind):
    return FileEvent(path=path, kind=kind)


def _directive(kind, path="", run_name=None):
    return ControlDirective(kind=kind, path=path, run_name=run_name)


@pytest.fixture
def workdir(tmp_path):
    return tmp_path.resolve()


def _by_bundle_path(records):
    return {record.bundle_relative_path: record for record in records}


class TestClassifyBasics:
    def test_sample_run(self, workdir, config):
        (workdir / "examples").mkdir()
        entry = workdir / "examples" / "main.py"
        entry.write_text("print('plot')\n")
        data = workdir / "results.csv"
        data.write_text("points\n1\n")
        image = workdir / "example.png"
        image.write_bytes(b"\x89PNG")
        events = [
            _event(data, EventKind.CREATED),
            _event(data, EventKind.READ_INTENT),
            _event(image, EventKind.CREATED),
        ]
        segments = classify(events, config, workdir, entry_script=entry)
        assert len(segments) == 1
        records = _by_bundle_path(segments[0].records)
        assert set(records) == {
            "inputs/results.csv",
            "outputs/example.png",
            "src/examples/main.py",
        }
        assert records["inputs/results.csv"].category is Category.INPUT
        assert records["inputs/results.csv"].also_generated is True
        assert records["outputs/example.png"].category is Category.OUTPUT
        assert records["src/examples/main.py"].category is Category.SOURCE

    def test_empty_run(self, workdir, config):
        segments = classify([], config, workdir)
        assert len(segments) == 1
        assert segments[0].records == []
        assert segments[0].name == "experiment_run"

    def test_read_only_event_is_input(self, workdir, config):
        f = workdir / "data.csv"
        f.write_text("1")
        segments = classify(
            [_event(f, EventKind.READ_INTENT)], config, workdir
        )
        record = segments[0].records[0]
        assert record.category is Category.INPUT
        assert record.bundle_relative_path == "inputs/data.csv"
        assert record.logged_by is LoggedBy.AUTO
        assert record.also_generated is False

    def test_directive_marks_user_logged(self, workdir, config):
        f = workdir / "data.csv"
        f.write_text("1")
        segments = classify(
            [_directive(DirectiveKind.INPUT, "data.csv")], config, workdir
        )
        record = segments[0].records[0]
        assert record.logged_by is LoggedBy.USER
        assert record.category is Category.INPUT

    def test_record_carries_digest_and_size(self, workdir, config):
        f = workdir / "data.bin"
        f.write_bytes(b"abc")
        segments = classify(
            [_event(f, EventKind.CREATED)], config, workdir
        )
        record = segments[0].records[0]
        assert record.size_bytes == 3
        assert record.sha256 == hashlib.sha256(b"abc").hexdigest()
        assert record.copied is True

    def test_python_file_read_becomes_source(self, workdir, config):
        module = workdir / "lib.py"
        module.write_text("def elaborate(x): return x\n")
        segments = classify(
            [_event(module, EventKind.READ_INTENT)], config, workdir
        )
        record = segments[0].records[0]
        assert record.category is Category.SOURCE
        assert record.bundle_relative_path == "src/lib.py"

    def test_created_python_file_is_output_not_source(self, workdir, config):
        generated = workdir / "gen.py"
        generated.write_text("x = 1\n")
        segments = classify(
            [_event(generated, EventKind.CREATED)], config, workdir
        )
        assert segments[0].records[0].category is Category.OUTPUT

    def test_source_roots_globs(self, workdir):
        config = RunConfig(source_roots=("helpers",))
        helper = workdir / "helpers" / "style.cfg"
        helper.parent.mkdir()
        helper.write_text("theme: dark\n")
        segments = classify(
            [_event(helper, EventKind.READ_INTENT)], config, workdir
        )
        assert segments[0].records[0].category is Category.SOURCE

    def test_entry_script_forced_even_without_events(self, workdir, config):
        entry = workdir / "main.py"
        entry.write_text("pass\n")
        segments = classify([], config, workdir, entry_script=entry)
        records = _by_bundle_path(segments[0].records)
        assert set(records) == {"src/main.py"}
        assert records["src/main.py"].category is Category.SOURCE

    def test_requirements_txt_becomes_environment(self, workdir, config):
        (workdir / "requirements.txt").write_text("pandas\n")
        segments = classify([], config, workdir)
        records = _by_bundle_path(segments[0].records)
        assert set(records) == {"inputs/requirements.txt"}
        assert records["inputs/requirements.txt"].category is Category.ENVIRONMENT

    def test_removed_event_discards_pending_output(self, workdir, config):
        transient = workdir / "scratch.tmp"
        events = [
            _event(transient, EventKind.CREATED),
            _event(transient, EventKind.REMOVED),
        ]
        segments = classify(events, config, workdir)
        assert segments[0].records == []

    def test_paths_under_provenance_dir_excluded(self, workdir, config):
        inside = workdir / "prov_0" / "outputs" / "old.png"
        inside.parent.mkdir(parents=True)
        inside.write_bytes(b"x")
        segments = classify(
            [_event(inside, EventKind.CREATED)], config, workdir
        )
        assert segments[0].records == []

    def test_two_spellings_collapse_to_one_record(self, workdir, config):
        real = workdir / "data.csv"
        real.write_text("1")
        link = workdir / "alias.csv"
        link.symlink_to(real)
        events = [
            _event(real.resolve(), EventKind.READ_INTENT),
            _event(link.resolve(), EventKind.READ_INTENT),
        ]
        segments = classify(events, config, workdir)
        assert len(segments[0].records) == 1

    def test_external_path_lands_under_inputs_external(self, workdir, config, tmp_path_factory):
        outside = tmp_path_factory.mktemp("elsewhere") / "shared.csv"
        outside.write_text("x\n")
        outside = outside.resolve()
        segments = classify(
            [_directive(DirectiveKind.INPUT, str(outside))],
            config,
            workdir,
        )
        record = segments[0].records[0]
        assert record.bundle_relative_path == "_external" + str(outside)

    def test_vanished_file_recorded_metadata_only(self, workdir, config):
        ghost = workdir / "gone.dat"
        segments = classify(
            [_event(ghost, EventKind.CREATED)], config, workdir
        )
        record = segments[0].records[0]
        assert record.copied is False
        assert record.skip_reason == "vanished"
        assert record.sha256 is None


class TestDirectiveErrors:
    def test_tab_in_directive_path_collected(self, workdir, config):
        segments = classify(
            [_directive(DirectiveKind.INPUT, "bad\tname.csv")],
            config,
            workdir,
        )
        assert segments[0].records == []
        assert any("TAB/LF" in e for e in segments[0].errors)

    def test_missing_external_directive_path_collected(self, workdir, config):
        segments = classify(
            [_directive(DirectiveKind.INPUT, "/definitely/not/here.csv")],
            config,
            workdir,
        )
        assert segments[0].records == []
        assert any("does not exist" in e for e in segments[0].errors)

    @pytest.mark.parametrize("trace_order", [False, True], ids=["diff", "trace"])
    def test_a_nul_in_a_directive_path_costs_only_that_line(
        self, workdir, config, trace_order
    ):
        (workdir / "data.csv").write_text("x\n")
        directives = parse_control_stream(["INPUT\tdata.csv", "INPUT\ta\0b/c.csv"])
        timeline = unify_timeline([], directives, None, trace_order=trace_order, cwd=workdir)
        segments = classify(timeline, config, workdir)
        assert [r.bundle_relative_path for r in segments[0].records] == ["inputs/data.csv"]
        assert segments[0].errors == [
            "directive path contains TAB/LF/NUL and was ignored: 'a\\x00b/c.csv'"
        ]

    def test_missing_directive_path_inside_cwd_gives_no_record(self, workdir, config):
        segments = classify(
            [_directive(DirectiveKind.INPUT, "nope")], config, workdir
        )
        assert segments[0].records == []
        assert segments[0].errors == ["directive path does not exist or cannot be read: 'nope'"]

    def test_directive_on_a_symlink_loop_gives_no_record(self, workdir, config):
        (workdir / "loop").symlink_to("loop")
        segments = classify(
            [_directive(DirectiveKind.INPUT, "loop")], config, workdir
        )
        assert segments[0].records == []
        assert segments[0].errors == ["directive path does not exist or cannot be read: 'loop'"]

    def test_a_directive_path_that_cannot_be_stated_gives_no_record(
        self, workdir, config, deny
    ):
        locked = workdir / "locked" / "x.csv"
        locked.parent.mkdir()
        locked.write_text("x\n")
        work = workdir / "work"
        work.mkdir()
        deny(locked)
        segments = classify([_directive(DirectiveKind.INPUT, "../locked/x.csv")], config, work)
        assert segments[0].records == []
        assert segments[0].errors == [
            "directive path does not exist or cannot be read: '../locked/x.csv'"
        ]

    def test_an_event_path_that_cannot_be_stated_is_vanished(self, workdir, config, deny):
        locked = workdir / "locked" / "x.csv"
        locked.parent.mkdir()
        locked.write_text("x\n")
        deny(locked)
        segments = classify([_event(locked, EventKind.READ_INTENT)], config, workdir)
        [record] = segments[0].records
        assert (record.copied, record.skip_reason, record.sha256) == (False, "vanished", None)
        assert segments[0].errors == []

    def test_a_watch_directory_that_cannot_be_stated_is_skipped(
        self, workdir, config, deny, caplog
    ):
        (workdir / "locked" / "sub").mkdir(parents=True)
        deny(workdir / "locked" / "sub")
        config = dataclasses.replace(config, watch_dirs=(Path("locked/sub"),))
        with caplog.at_level("WARNING"):
            assert watched_roots(config, workdir) == [workdir]
        assert any("cannot be read, skipping" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize("make", [os.mkdir, os.mkfifo], ids=["directory", "fifo"])
    def test_directive_on_something_not_a_regular_file_gives_no_record(
        self, workdir, config, make
    ):
        make(workdir / "assets")
        segments = classify(
            [_directive(DirectiveKind.INPUT, "assets")], config, workdir
        )
        assert segments[0].records == []
        assert segments[0].errors == ["directive path is not a regular file: 'assets'"]

    def test_directive_and_event_on_a_directory_give_an_error_and_no_record(
        self, workdir, config
    ):
        (workdir / "assets").mkdir()
        segments = classify(
            [
                _directive(DirectiveKind.INPUT, "assets"),
                _event(workdir / "assets", EventKind.READ_INTENT),
            ],
            config,
            workdir,
        )
        assert segments[0].records == []
        assert segments[0].errors == ["directive path is not a regular file: 'assets'"]

    @pytest.mark.parametrize("kind", [EventKind.READ_INTENT, EventKind.REMOVED])
    def test_directive_on_a_file_the_run_touched_stays_vanished(self, workdir, config, kind):
        gone = workdir / "gone.csv"
        segments = classify(
            [_directive(DirectiveKind.INPUT, "gone.csv"), _event(gone, kind)],
            config,
            workdir,
        )
        [record] = segments[0].records
        assert record.bundle_relative_path == "inputs/gone.csv"
        assert record.skip_reason == "vanished"
        assert segments[0].errors == []

    def test_classification_continues_after_errors(self, workdir, config):
        good = workdir / "fine.csv"
        good.write_text("1")
        segments = classify(
            [
                _directive(DirectiveKind.INPUT, "bad\tname.csv"),
                _directive(DirectiveKind.INPUT, "fine.csv"),
            ],
            config,
            workdir,
        )
        assert [r.bundle_relative_path for r in segments[0].records] == [
            "inputs/fine.csv"
        ]
        assert len(segments[0].errors) == 1


class TestUntrack:
    def test_untrack_removes_record_entirely(self, workdir, config):
        f = workdir / "secret.bin"
        f.write_bytes(b"s")
        segments = classify(
            [_event(f, EventKind.CREATED), _directive(DirectiveKind.UNTRACK, "secret.bin")],
            config,
            workdir,
        )
        assert segments[0].records == []

    def test_untrack_dominates_regardless_of_order(self, workdir, config):
        f = workdir / "secret.bin"
        f.write_bytes(b"s")
        timeline = [
            _directive(DirectiveKind.UNTRACK, "secret.bin"),
            _directive(DirectiveKind.OUTPUT, "secret.bin"),
            _event(f, EventKind.CREATED),
        ]
        segments = classify(timeline, config, workdir)
        assert segments[0].records == []

    def test_untrack_is_idempotent(self, workdir, config):
        f = workdir / "secret.bin"
        f.write_bytes(b"s")
        directives = [
            _directive(DirectiveKind.UNTRACK, "secret.bin"),
            _directive(DirectiveKind.UNTRACK, "secret.bin"),
        ]
        segments = classify(directives, config, workdir)
        assert segments[0].records == []

    def test_late_untrack_downgrades_earlier_segment(self, workdir, config):
        f = workdir / "big.bin"
        f.write_bytes(b"b")
        (workdir / "keep.bin").write_bytes(b"k")
        timeline = [
            _directive(DirectiveKind.OUTPUT, "big.bin"),
            _directive(DirectiveKind.OUTPUT, "keep.bin"),
            _directive(DirectiveKind.END_RUN, run_name="first"),
            _directive(DirectiveKind.UNTRACK, "keep.bin\t"),  # TAB: ignored
            _directive(DirectiveKind.UNTRACK, "prov_0/keep.bin"),  # excluded
            _directive(DirectiveKind.UNTRACK, "big.bin"),
        ]
        segments = classify(timeline, config, workdir)
        assert len(segments) == 2
        first, kept = segments[0].records
        assert first.copied is False
        assert first.skip_reason == "untracked_late"
        assert kept.copied is True and kept.skip_reason is None
        assert segments[1].records == []
        assert segments[0].errors == []
        assert len(segments[1].errors) == 1 and "TAB/LF" in segments[1].errors[0]


class TestSegmentation:
    def test_end_run_splits_timeline(self, workdir, config):
        a = workdir / "a.png"
        a.write_bytes(b"a")
        b = workdir / "b.png"
        b.write_bytes(b"b")
        timeline = [
            _event(a, EventKind.CREATED),
            _directive(DirectiveKind.END_RUN, run_name="first"),
            _event(b, EventKind.CREATED),
        ]
        segments = classify(timeline, config, workdir)
        assert [s.name for s in segments] == ["first", "experiment_run_1"]
        assert [r.bundle_relative_path for r in segments[0].records] == [
            "outputs/a.png"
        ]
        assert [r.bundle_relative_path for r in segments[1].records] == [
            "outputs/b.png"
        ]

    def test_trailing_implicit_segment_always_exists(self, workdir, config):
        directives = [_directive(DirectiveKind.END_RUN, run_name="only")]
        segments = classify(directives, config, workdir)
        assert [s.name for s in segments] == ["only", "experiment_run_1"]

    def test_duplicate_segment_names_disambiguated(self, workdir, config):
        directives = [
            _directive(DirectiveKind.END_RUN, run_name="phase"),
            _directive(DirectiveKind.END_RUN, run_name="phase"),
        ]
        segments = classify(directives, config, workdir)
        names = [s.name for s in segments]
        assert len(set(names)) == 3

    def test_partition_matches_independent_subtimeline_classification(
        self, workdir, config
    ):
        paths = {}
        for name in ("a.csv", "b.png", "c.txt"):
            p = workdir / name
            p.write_text(name)
            paths[name] = p
        merged_events = [
            _event(paths["a.csv"], EventKind.READ_INTENT),
            _event(paths["b.png"], EventKind.CREATED),
            _event(paths["c.txt"], EventKind.CREATED),
        ]
        end_run = _directive(DirectiveKind.END_RUN, run_name="first")
        combined = classify([*merged_events[:2], end_run, merged_events[2]], config, workdir)

        first_alone = classify(merged_events[:2], config, workdir)
        second_alone = classify(merged_events[2:], config, workdir)
        key = lambda seg: sorted(
            (r.bundle_relative_path, r.category) for r in seg.records
        )
        assert key(combined[0]) == key(first_alone[0])
        assert key(combined[1]) == key(second_alone[0])

    def test_entry_script_present_in_every_segment(self, workdir, config):
        entry = workdir / "main.py"
        entry.write_text("pass\n")
        directives = [_directive(DirectiveKind.END_RUN, run_name="first")]
        segments = classify(directives, config, workdir, entry_script=entry)
        for segment in segments:
            assert "src/main.py" in _by_bundle_path(segment.records)

    def test_exclusion_is_decided_once_per_distinct_path(
        self, workdir, config, monkeypatch
    ):
        classify_module = importlib.import_module("provwrap.classify")
        real = classify_module.matches_exclusion
        asked = Counter()

        def counting(target, patterns):
            asked[target] += 1
            return real(target, patterns)

        monkeypatch.setattr(classify_module, "matches_exclusion", counting)
        entry = workdir / "main.py"
        entry.write_text("pass\n")
        (workdir / "requirements.txt").write_text("numpy\n")
        data = workdir / "data.csv"
        data.write_text("1\n")
        hidden = workdir / "prov_0" / "old.png"
        timeline = []
        for k in range(3):  # three segments, each touching every path
            timeline += [
                _event(data, EventKind.READ_INTENT),
                _event(data, EventKind.READ_INTENT),
                _event(workdir / f"out{k}.png", EventKind.WRITE_INTENT),
                _event(hidden, EventKind.WRITE_INTENT),
                _directive(DirectiveKind.INPUT, "data.csv"),
                _directive(DirectiveKind.UNTRACK, "prov_0/old.png"),
                _directive(DirectiveKind.END_RUN),
            ]
        segments = classify(timeline, config, workdir, entry_script=entry)
        assert len(segments) == 4
        assert asked == Counter(
            ["data.csv", "out0.png", "out1.png", "out2.png", "prov_0/old.png",
             "main.py", "requirements.txt"]
        )


    def test_each_path_is_hashed_once_per_call(self, workdir, config, monkeypatch):
        classify_module = importlib.import_module("provwrap.classify")
        real = classify_module.sha256_file
        hashed = Counter()

        def counting(path):
            hashed[path] += 1
            return real(path)

        monkeypatch.setattr(classify_module, "sha256_file", counting)
        entry = workdir / "main.py"
        entry.write_text("pass\n")
        requirements = workdir / "requirements.txt"
        requirements.write_text("numpy\n")
        data = workdir / "data.csv"
        data.write_text("1\n")
        chart = workdir / "chart.png"
        chart.write_bytes(b"png")
        timeline = []
        for k in range(3):  # three segments, each recording every path
            timeline += [
                _event(data, EventKind.READ_INTENT),
                _event(chart, EventKind.WRITE_INTENT),
                _directive(DirectiveKind.INPUT, "data.csv"),
                _directive(DirectiveKind.END_RUN),
            ]
        segments = classify(timeline, config, workdir, entry_script=entry)
        assert [len(segment.records) for segment in segments] == [4, 4, 4, 2]
        assert hashed == Counter([data, chart, entry, requirements])
        for segment in segments:
            for record in segment.records:
                content = record.original_path.read_bytes()
                assert record.sha256 == hashlib.sha256(content).hexdigest()
                assert record.size_bytes == len(content)

    def test_a_file_swapped_for_a_fifo_before_its_hash_has_no_digest(
        self, workdir, config, monkeypatch
    ):
        # is_file saw a regular file; by the open it is a FIFO
        classify_module = importlib.import_module("provwrap.classify")
        real = classify_module.sha256_file
        data = workdir / "data.csv"
        data.write_text("1\n")

        def swap_then_hash(path, *args, **kwargs):
            if path == data:
                data.unlink()
                os.mkfifo(data)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(classify_module, "sha256_file", swap_then_hash)
        timeline = [_event(data, EventKind.READ_INTENT), _directive(DirectiveKind.INPUT, "data.csv")]
        segments = returns_within(10, data, classify, timeline, config, workdir)
        (record,) = segments[0].records
        assert record.original_path == data
        assert record.sha256 is None
        assert not record.copied


class TestWatchedRoots:
    def test_a_root_at_or_under_a_listed_root_is_left_out(self, workdir):
        for rel in ("sub/deep", "other/inner"):
            (workdir / rel).mkdir(parents=True)
        cwd = workdir / "cwd"
        cwd.mkdir()
        (cwd / "sub" / "deep").mkdir(parents=True)
        config = RunConfig(
            watch_dirs=(
                "sub", ".", "sub/deep", str(workdir / "other"), "../other/inner",
                "missing", "../other",
            )
        )
        assert watched_roots(config, cwd) == [cwd, workdir / "other"]


class TestSizeThreshold:
    def test_under_limit_copied(self):
        record = make_record(size_bytes=49 * 1_000_000)
        assert apply_size_threshold(record, 50).copied is True

    def test_zero_byte_file_copied(self):
        record = make_record(size_bytes=0)
        assert apply_size_threshold(record, 50).copied is True

    def test_decimal_megabyte_boundary(self):
        over = apply_size_threshold(make_record(size_bytes=51_000_001), 50)
        assert over.copied is False
        assert over.skip_reason == "size_threshold"
        exact = apply_size_threshold(make_record(size_bytes=50_000_000), 50)
        assert exact.copied is True
        just_over = apply_size_threshold(make_record(size_bytes=50_000_001), 50)
        assert just_over.copied is False

    def test_digest_retained_when_skipped(self):
        record = apply_size_threshold(make_record(size_bytes=60_000_000), 50)
        assert record.sha256 is not None

    def test_unpopulated_size_rejected(self):
        with pytest.raises(ValueError):
            apply_size_threshold(make_record(size_bytes=None), 50)

    def test_classify_applies_threshold(self, workdir):
        config = RunConfig(skip_files_larger_than=1)
        big = workdir / "big.bin"
        big.write_bytes(b"\x00" * 1_000_001)
        segments = classify(
            [_directive(DirectiveKind.INPUT, "big.bin")], config, workdir
        )
        record = segments[0].records[0]
        assert record.copied is False
        assert record.skip_reason == "size_threshold"
        assert record.sha256 == hashlib.sha256(b"\x00" * 1_000_001).hexdigest()


class TestInputSavingModes:
    def test_subset_mode_degrades_to_metadata_only(self, workdir):
        config = RunConfig(input_copies=InputCopies.SUBSET)
        f = workdir / "data.csv"
        f.write_text("1")
        segments = classify(
            [_event(f, EventKind.READ_INTENT)], config, workdir
        )
        record = segments[0].records[0]
        assert record.copied is False
        assert record.skip_reason == "subset_mode"
        assert record.sha256 is not None

    def test_no_save_inputs(self, workdir):
        config = RunConfig(input_copies=InputCopies.NONE)
        f = workdir / "data.csv"
        f.write_text("1")
        segments = classify(
            [_event(f, EventKind.READ_INTENT)], config, workdir
        )
        record = segments[0].records[0]
        assert record.copied is False
        assert record.skip_reason == "not_saved"

    def test_outputs_unaffected_by_input_modes(self, workdir):
        config = RunConfig(input_copies=InputCopies.SUBSET)
        f = workdir / "out.png"
        f.write_bytes(b"p")
        segments = classify(
            [_event(f, EventKind.CREATED)], config, workdir
        )
        assert segments[0].records[0].copied is True


class TestPipelineProperty:
    def test_random_timelines_always_yield_valid_documents(self, tmp_path):
        rng = random.Random(31415)
        event_kinds = list(EventKind)
        directive_kinds = [
            DirectiveKind.INPUT,
            DirectiveKind.OUTPUT,
            DirectiveKind.UNTRACK,
        ]
        for trial in range(30):
            workdir = (tmp_path / f"t{trial}").resolve()
            workdir.mkdir()
            pool = []
            for i in range(rng.randint(0, 8)):
                sub = rng.choice(["", "d1/", "d1/d2/"])
                ext = rng.choice([".csv", ".png", ".py", ".txt", ""])
                path = workdir / f"{sub}file_{i}{ext}"
                path.parent.mkdir(parents=True, exist_ok=True)
                if rng.random() < 0.8:
                    path.write_bytes(rng.randbytes(rng.randint(0, 40)))
                pool.append(path)

            timeline = []
            for path in pool:
                for _ in range(rng.randint(0, 2)):
                    if rng.random() < 0.5:
                        timeline.append(FileEvent(path=path, kind=rng.choice(event_kinds)))
                    else:
                        timeline.append(
                            ControlDirective(kind=rng.choice(directive_kinds), path=str(path))
                        )
            for _ in range(rng.randint(0, 2)):
                timeline.append(
                    ControlDirective(
                        kind=DirectiveKind.END_RUN, run_name=rng.choice([None, "phase"])
                    )
                )

            config = RunConfig()
            segments = classify(timeline, config, workdir)
            meta = make_meta()
            seen_names = set()
            for segment in segments:
                assert segment.name not in seen_names
                seen_names.add(segment.name)
                bundle_paths = [r.bundle_relative_path for r in segment.records]
                assert len(set(bundle_paths)) == len(bundle_paths)
                segment_config = dataclasses.replace(config, run_name=segment.name)
                doc = build_document(segment.records, meta, segment_config)
                assert validate(doc) == [], f"trial {trial}"
                data = to_prov_json(doc)
                assert parse_prov_json(data) == doc, f"trial {trial}"


class TestRunConfigInvariants:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            RunConfig(skip_files_larger_than=0)

    def test_provenance_directory_single_component(self):
        with pytest.raises(ValueError):
            RunConfig(provenance_directory="out/prov")
        with pytest.raises(ValueError):
            RunConfig(provenance_directory="/abs")

    @pytest.mark.parametrize("values", [{"run_name": ""}, {"prefix": "a:b"}])
    def test_empty_run_name_and_prefix_with_colon_rejected(self, values):
        with pytest.raises(ValueError):
            RunConfig(**values)

    def test_defaults_match_contract(self):
        config = RunConfig()
        assert config.run_name == "experiment_run"
        assert config.provenance_directory == "prov"
        assert config.prefix == "yProv4DA"
        assert config.default_namespace == "http://example.org/"
        assert config.create_json_file is False
        assert config.create_dot_file is False
        assert config.create_svg_file is False
        assert config.create_rocrate is True
        assert config.input_copies is InputCopies.FULL
        assert config.skip_files_larger_than == 50
        assert build_arg_parser().parse_args([]).verbose is False


_COMPONENTS = st.sampled_from(["a", "ab", "b", "a.b", "work", "work2"])


@given(
    path=st.lists(_COMPONENTS, max_size=4),
    roots=st.lists(st.lists(_COMPONENTS, max_size=3), min_size=1, max_size=3),
)
def test_locate_agrees_with_path_parents(path, roots):
    resolved = PurePosixPath("/", *path)
    root_paths = [PurePosixPath("/", *root) for root in roots]
    holding = [root for root in root_paths if resolved == root or root in resolved.parents]
    expected = None
    if holding:
        innermost = max(holding, key=lambda root: len(root.parts))
        expected = innermost, resolved.relative_to(innermost).as_posix()
    assert locate(root_paths)(resolved) == expected


def test_locate_rejects_a_sibling_sharing_the_prefix():
    find = locate([PurePosixPath("/data/work")])
    assert find(PurePosixPath("/data/work")) == (PurePosixPath("/data/work"), ".")
    assert find(PurePosixPath("/data/work/x.csv")) == (PurePosixPath("/data/work"), "x.csv")
    assert find(PurePosixPath("/data/work2/x.csv")) is None
    assert find(PurePosixPath("/data")) is None


# --- reference model ---------------------------------------------------------
#
# The model states classify's rules as set algebra over one segment at a time,
# with no per-path state machine: `read` holds the paths read, `written` the
# paths whose last write-kind item is not REMOVED, `logged` the paths a
# directive logged and `untracked` the paths untracked. A segment records
# (read | written) - untracked in first-mention order, then each forced path
# (the entry script, an existing requirements.txt) outside all three, except
# that a directory gives no record; an UNTRACK in a later segment downgrades
# an earlier copied record.

# Names below the working directory; "../elsewhere.csv" lies outside it, and
# "bad\udcff.csv" is a file name that is not UTF-8 (byte 0xff).
_UNIVERSE = (
    "data.csv", "lib.py", "main.py", "requirements.txt", "prov_0/x.png",
    "../elsewhere.csv", "tab\tname.csv", "bad\udcff.csv",
)
_EXCLUDED = "prov_0/x.png"
_ENTRY = "main.py"
_WRITE_KINDS = (EventKind.WRITE_INTENT, EventKind.CREATED, EventKind.MODIFIED)

_ITEMS = st.one_of(
    st.tuples(st.just("event"), st.sampled_from(list(EventKind)),
              st.sampled_from(_UNIVERSE)),
    st.tuples(st.just("directive"),
              st.sampled_from([DirectiveKind.INPUT, DirectiveKind.OUTPUT,
                               DirectiveKind.UNTRACK]),
              st.sampled_from(_UNIVERSE), st.booleans()),
    st.tuples(st.just("end"), st.sampled_from([None, "phase", "experiment_run_1"])),
)


def _model(items, kinds, with_entry, input_copies, big, cwd):
    """Reference segments: [(name, errors, [record fields, ...]), ...]."""
    path_of = {name: (cwd / name).resolve() for name in _UNIVERSE}
    name_of = {path: name for name, path in path_of.items()}
    named = {path_of[item[2]] for item in items if item[0] == "event"}
    segments, current, ends = [], [], []
    for item in items:
        if item[0] == "end":
            segments.append(current)
            ends.append(item[1])
            current = []
        else:
            current.append(item)
    segments.append(current)
    ends.append(None)

    forced = [_ENTRY] if with_entry else []
    if kinds["requirements.txt"] == "file":
        forced.append("requirements.txt")
    out, untracked_by_segment = [], []
    for segment in segments:
        errors, mentioned, read, logged, untracked = [], [], set(), set(), set()
        last_write = {}
        for item in segment:
            if item[0] == "event":
                _, kind, name = item
            else:
                _, kind, name, absolute = item
                spelling = str(path_of[name]) if absolute else name
                if "\t" in spelling:
                    errors.append(
                        f"directive path contains TAB/LF/NUL and was ignored: {spelling!r}"
                    )
                    continue
            if name == _EXCLUDED:
                continue
            if kind is DirectiveKind.UNTRACK:
                untracked.add(name)
                continue
            if isinstance(kind, DirectiveKind):
                if path_of[name] not in named and kinds[name] == "missing":
                    errors.append(f"directive path does not exist or cannot be read: {spelling!r}")
                    continue
                logged.add(name)
            mentioned.append(name)
            if kind in (EventKind.READ_INTENT, DirectiveKind.INPUT):
                read.add(name)
            elif kind in (*_WRITE_KINDS, DirectiveKind.OUTPUT, EventKind.REMOVED):
                last_write[name] = kind
        written = {name for name, kind in last_write.items() if kind is not EventKind.REMOVED}
        chosen = list(dict.fromkeys(
            name for name in mentioned if name in (read | written) - untracked
        ))
        chosen += [name for name in forced if name not in read | written | untracked]

        records = []
        for name in chosen:
            path = path_of[name]
            if "\udcff" in name:
                errors.append(f"path is not valid UTF-8 and was not recorded: {str(path)!r}")
                continue
            if kinds[name] == "directory":
                if name in logged:
                    shown = str(path) if name.startswith("../") else name
                    errors.append(f"directive path is not a regular file: {shown!r}")
                continue
            if name == "requirements.txt":
                category = Category.ENVIRONMENT
            elif (with_entry and name == _ENTRY) or (name in read and name.endswith(".py")):
                category = Category.SOURCE
            elif name in read:
                category = Category.INPUT
            else:
                category = Category.OUTPUT
            if name.startswith("../"):
                bundle_path = "_external" + str(path)
            else:
                top = {Category.OUTPUT: "outputs", Category.SOURCE: "src"}
                bundle_path = f"{top.get(category, 'inputs')}/{name}"
            if kinds[name] != "file":
                copied, reason = False, "vanished"
            elif category is Category.INPUT and input_copies is not InputCopies.FULL:
                copied, reason = False, input_copies.value
            elif name == "data.csv" and big:
                copied, reason = False, "size_threshold"
            else:
                copied, reason = True, None
            records.append([
                path, bundle_path, category, name in written and category is not Category.OUTPUT,
                LoggedBy.USER if name in logged else LoggedBy.AUTO, copied, reason,
            ])
        out.append((errors, records))
        untracked_by_segment.append(untracked)

    result, names = [], []
    for index, ((errors, records), explicit) in enumerate(zip(out, ends)):
        name = explicit or ("experiment_run" if index == 0 else f"experiment_run_{index}")
        while name in names:
            name += f"_{index}"
        names.append(name)
        later = set().union(*untracked_by_segment[index + 1:])
        for record in records:
            if record[5] and name_of[record[0]] in later:
                record[5:] = [False, "untracked_late"]
        result.append((name, errors, [tuple(record[1:]) for record in records]))
    return result


@given(
    items=st.lists(_ITEMS, max_size=12),
    kinds=st.fixed_dictionaries(
        {name: st.sampled_from(["file", "missing", "directory"]) for name in _UNIVERSE}
    ),
    with_entry=st.booleans(),
    input_copies=st.sampled_from(list(InputCopies)),
    big=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_classify_agrees_with_the_reference_model(
    items, kinds, with_entry, input_copies, big
):
    with tempfile.TemporaryDirectory() as tmp:
        cwd = (Path(tmp) / "work").resolve()
        cwd.mkdir()
        for name, kind in kinds.items():
            path = cwd / name
            path.parent.mkdir(parents=True, exist_ok=True)
            if kind == "directory":
                path.mkdir()
            elif kind == "file":
                size = 1_000_001 if name == "data.csv" and big else len(name)
                path.write_bytes(b"x" * size)
        timeline = []
        for item in items:
            if item[0] == "event":
                _, kind, name = item
                timeline.append(_event((cwd / name).resolve(), kind))
            elif item[0] == "directive":
                _, kind, name, absolute = item
                spelling = str((cwd / name).resolve()) if absolute else name
                timeline.append(_directive(kind, spelling))
            else:
                timeline.append(_directive(DirectiveKind.END_RUN, run_name=item[1]))
        config = RunConfig(input_copies=input_copies, skip_files_larger_than=1)
        entry = cwd / _ENTRY if with_entry else None
        with only_normalized_exclusion_names():
            segments = classify(timeline, config, cwd, entry_script=entry)
        actual = [
            (
                segment.name,
                segment.errors,
                [
                    (r.bundle_relative_path, r.category, r.also_generated, r.logged_by,
                     r.copied, r.skip_reason)
                    for r in segment.records
                ],
            )
            for segment in segments
        ]
        assert actual == _model(items, kinds, with_entry, input_copies, big, cwd)


# --- rejected control lines --------------------------------------------------

_CONTROL_NAMES = ("a.csv", "b.png", "c.txt", "gone.csv")
_VALID_LINES = st.one_of(
    st.tuples(st.sampled_from(["INPUT", "OUTPUT", "UNTRACK"]), st.sampled_from(_CONTROL_NAMES))
    .map("\t".join),
    st.sampled_from(["END_RUN", "END_RUN\tphase", "END_RUN\texperiment_run_1"]),
)
# Each is refused by parse_control_line: an unknown verb, a path verb
# without a path, or bytes that are not UTF-8 (as surrogateescape reads them).
_REJECTED_LINES = st.one_of(
    st.tuples(
        st.sampled_from(["FROB", "input", "End_Run", "END_RUNS", " OUTPUT", "UNTRACKED"]),
        st.sampled_from(["", "\ta.csv", "\t"]),
    ).map("".join),
    st.sampled_from(["INPUT", "OUTPUT\t", "UNTRACK"]),
    st.sampled_from(["INPUT\ta\udcff.csv", "END_RUN\t\udcfe", "\udcff"]),
)


@given(
    valid=st.lists(_VALID_LINES, max_size=8),
    rejected=st.lists(st.tuples(st.integers(0, 8), _REJECTED_LINES), max_size=6),
    created=st.lists(st.sampled_from(_CONTROL_NAMES), unique=True),
)
@settings(max_examples=100, deadline=None)
def test_rejected_control_lines_never_cost_a_valid_segment(valid, rejected, created):
    mixed = list(valid)
    for position, line in sorted(rejected, reverse=True):
        mixed.insert(min(position, len(mixed)), line)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp).resolve()
        for name in _CONTROL_NAMES[:3]:
            (cwd / name).write_text(name)
        events = [FileEvent(cwd / name, EventKind.CREATED) for name in created]

        def bundles(lines):
            directives = parse_control_stream(lines)
            timeline = unify_timeline(events, directives, None, trace_order=False, cwd=cwd)
            return [
                (
                    segment.name,
                    segment.errors,
                    [
                        (r.bundle_relative_path, r.category, r.logged_by, r.sha256,
                         r.copied, r.skip_reason)
                        for r in segment.records
                    ],
                )
                for segment in classify(timeline, RunConfig(), cwd)
            ]

        assert bundles(mixed) == bundles(valid)
