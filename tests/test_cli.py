"""Wrapper CLI: flag mapping, timeline unification, end-to-end pipeline."""

import errno
import importlib
import json
import os
import shutil
import stat
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provwrap import (
    ControlDirective,
    DirectiveKind,
    EventKind,
    FileEvent,
    InputCopies,
    load_snapshot,
    save_snapshot,
    take_snapshot,
)
from provwrap.cli import (
    PROVENANCE_EXIT,
    build_arg_parser,
    config_from_args,
    detect_entry_script,
    run,
    unify_timeline,
)
from provwrap.monitor import (
    _HASH_CHUNK,
    _HASH_THREAD_FROM,
    INDEX_FILES_KEPT,
    index_file,
    save_indexes,
)

from conftest import write_sample_project


def _parse_config(flags):
    return config_from_args(build_arg_parser().parse_args(flags))


class TestFlagMapping:
    def test_defaults_reproduce_contract(self):
        config = _parse_config([])
        assert config.run_name == "experiment_run"
        assert config.provenance_directory == "prov"
        assert config.prefix == "yProv4DA"
        assert config.default_namespace == "http://example.org/"
        assert config.create_rocrate is True
        assert config.create_json_file is False
        assert config.create_dot_file is False
        assert config.create_svg_file is False
        assert config.skip_files_larger_than == 50
        assert config.source_extensions == frozenset({".py"})
        assert build_arg_parser().parse_args([]).backend == "auto"

    def test_each_flag_maps(self):
        args = build_arg_parser().parse_args(
            [
                "--name", "fig3",
                "--dir", "bundles",
                "--prefix", "lab",
                "--namespace", "https://lab.example/",
                "--json", "--dot", "--svg",
                "--no-rocrate",
                "--no-save-inputs",
                "--subset-inputs",
                "--max-file-mb", "5",
                "--source-ext", ".R",
                "--source-ext", "jl",
                "--source-root", "helpers",
                "--watch", "/data",
                "--exclude", "*.log",
                "--backend", "diff",
                "--verbose",
            ]
        )
        config = config_from_args(args)
        assert config.run_name == "fig3"
        assert config.provenance_directory == "bundles"
        assert config.prefix == "lab"
        assert config.default_namespace == "https://lab.example/"
        assert config.create_json_file and config.create_dot_file and config.create_svg_file
        assert config.create_rocrate is False
        assert config.input_copies is InputCopies.SUBSET
        assert config.skip_files_larger_than == 5
        assert config.source_extensions == frozenset({".R", ".jl"})
        assert config.source_roots == ("helpers",)
        assert config.watch_dirs == (Path("/data"),)
        assert "*.log" in config.excludes
        assert args.backend == "diff"
        assert args.verbose is True

    def test_subset_wins_when_both_input_flags_are_given(self):
        assert _parse_config([]).input_copies is InputCopies.FULL
        assert _parse_config(["--no-save-inputs"]).input_copies is InputCopies.NONE
        assert _parse_config(["--subset-inputs"]).input_copies is InputCopies.SUBSET
        for flags in (
            ["--no-save-inputs", "--subset-inputs"],
            ["--subset-inputs", "--no-save-inputs"],
        ):
            assert _parse_config(flags).input_copies is InputCopies.SUBSET


class TestEntryScriptDetection:
    def test_interpreter_plus_script(self, tmp_path):
        script = tmp_path / "examples" / "main.py"
        script.parent.mkdir()
        script.write_text("pass\n")
        found = detect_entry_script(
            ["python", "examples/main.py"], tmp_path, frozenset({".py"})
        )
        assert found == script.resolve()

    def test_no_script_in_argv(self, tmp_path):
        assert (
            detect_entry_script(["make", "figures"], tmp_path, frozenset({".py"}))
            is None
        )

    def test_respects_configured_extensions(self, tmp_path):
        script = tmp_path / "plot.R"
        script.write_text("plot()\n")
        assert (
            detect_entry_script(["Rscript", "plot.R"], tmp_path, frozenset({".py"}))
            is None
        )
        assert (
            detect_entry_script(["Rscript", "plot.R"], tmp_path, frozenset({".R"}))
            == script.resolve()
        )

    def test_an_argument_too_long_for_a_file_name_is_no_script(self, tmp_path):
        code = "x = 1; " * 60  # one 420-byte path component: ENAMETOOLONG
        assert detect_entry_script(["python", "-c", code], tmp_path, frozenset({".py"})) is None


class TestUnifyTimeline:
    def test_diff_mode_anchors_events_to_mentioning_directive(self, tmp_path):
        a = (tmp_path / "a.png").resolve()
        b = (tmp_path / "b.png").resolve()
        events = [
            FileEvent(path=a, kind=EventKind.CREATED),
            FileEvent(path=b, kind=EventKind.CREATED),
        ]
        output = ControlDirective(kind=DirectiveKind.OUTPUT, path=str(a), index=0)
        end_run = ControlDirective(kind=DirectiveKind.END_RUN, run_name="first", index=1)
        timeline = unify_timeline(
            events, [output, end_run], None, trace_order=False, cwd=tmp_path
        )
        # a is anchored into the first segment; unmentioned events trail
        assert timeline == [output, events[0], end_run, events[1]]

    def test_trace_mode_anchors_directives_at_control_writes(self, tmp_path):
        control = (tmp_path / "control").resolve()
        out = (tmp_path / "a.png").resolve()
        later = (tmp_path / "b.png").resolve()
        events = [
            FileEvent(path=out, kind=EventKind.WRITE_INTENT),
            FileEvent(path=control, kind=EventKind.WRITE_INTENT),
            FileEvent(path=later, kind=EventKind.WRITE_INTENT),
        ]
        end_run = ControlDirective(kind=DirectiveKind.END_RUN, run_name="first", index=0)
        timeline = unify_timeline(events, [end_run], control, trace_order=True)
        assert timeline == [events[0], end_run, events[2]]


def _reference_unify_timeline(
    events, directives, control_path, trace_order, cwd=None
):
    """The former unify_timeline (2k / 2k+1 seqs), kept as an oracle: it
    returns (seq, item) pairs, event k of the list taking seq k."""
    if trace_order:
        anchors = [
            seq
            for seq, event in enumerate(events)
            if control_path is not None and event.path == control_path
        ]
        kept = [
            (seq * 2, event)
            for seq, event in enumerate(events)
            if control_path is None or event.path != control_path
        ]
        out_directives = []
        for index, directive in enumerate(directives):
            if anchors:  # control line i is anchored at the i-th open
                anchor = anchors[min(directive.index, len(anchors) - 1)]
                seq = anchor * 2 + 1
            else:
                seq = len(events) * 2 + 1 + index
            out_directives.append((seq, directive))
        return kept, out_directives

    base = Path.cwd() if cwd is None else Path(cwd)
    mentioned: dict[Path, int] = {}
    for index, directive in enumerate(directives):
        if directive.kind is DirectiveKind.END_RUN:
            continue
        if "\t" in directive.path or "\n" in directive.path:
            continue
        path = Path(directive.path)
        if not path.is_absolute():
            path = base / path
        path = path.resolve()
        mentioned.setdefault(path, index)
    out_directives = [(index * 2, directive) for index, directive in enumerate(directives)]
    out_events = []
    unanchored = 0
    for event in events:
        if event.path in mentioned:
            seq = mentioned[event.path] * 2 + 1
        else:
            seq = len(directives) * 2 + 1 + unanchored
            unanchored += 1
        out_events.append((seq, event))
    return out_events, out_directives


_ORACLE_CWD = Path("/provwrap-oracle/work")  # never created: resolve() is lexical
_ORACLE_CONTROL = Path("/provwrap-oracle/scratch/control")
_ORACLE_NAMES = ["a.csv", "sub/b.png", "./a.csv", "../out.txt", "/elsewhere/c.csv"]


@st.composite
def _timelines(draw):
    """Trace-ordered events (control opens, repeated paths) and directives
    (TAB/LF paths, END_RUN, more or fewer than the opens)."""
    events = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 4)) == 0:
            path = _ORACLE_CONTROL
        else:
            path = (_ORACLE_CWD / draw(st.sampled_from(_ORACLE_NAMES))).resolve()
        kind = draw(st.sampled_from(EventKind))
        events.append(FileEvent(path=path, kind=kind))
    directives, line = [], 0
    for _ in range(draw(st.integers(0, 8))):
        line += draw(st.integers(1, 2))  # blank control lines keep their index
        kind = draw(st.sampled_from(DirectiveKind))
        if kind is DirectiveKind.END_RUN:
            directives.append(ControlDirective(kind=kind, run_name="r", index=line))
        else:
            name = draw(st.sampled_from(_ORACLE_NAMES))
            path = name + draw(st.sampled_from(["", "\t", "\n"]))
            directives.append(ControlDirective(kind=kind, path=path, index=line))
    return events, directives


def _merged_order(events, directives):
    """The items of the oracle's (seq, item) pairs in the order the former
    classify merged them: by seq, directives first on ties, then list order."""
    return [
        item
        for _, _, _, item in sorted(
            [(seq, 0, i, d) for i, (seq, d) in enumerate(directives)]
            + [(seq, 1, i, e) for i, (seq, e) in enumerate(events)],
            key=lambda entry: entry[:3],
        )
    ]


@settings(max_examples=300, deadline=None)
@given(timeline=_timelines(), trace_order=st.booleans())
def test_unify_timeline_keeps_the_reference_merge_order(timeline, trace_order):
    events, directives = timeline
    expected = _merged_order(
        *_reference_unify_timeline(
            events, directives, _ORACLE_CONTROL, trace_order, cwd=_ORACLE_CWD
        )
    )
    unified = unify_timeline(events, directives, _ORACLE_CONTROL, trace_order, cwd=_ORACLE_CWD)
    assert unified == expected
    # every item comes back as the very same object
    assert all(new is old for new, old in zip(unified, expected))


@pytest.fixture
def project(tmp_path, monkeypatch):
    workdir = tmp_path / "work"
    workdir.mkdir()
    write_sample_project(workdir)
    monkeypatch.chdir(workdir)
    return workdir.resolve()


class TestRunEndToEnd:
    def test_missing_separator_is_usage_error(self, capsys):
        assert run(["--dot"]) == 2
        assert "--" in capsys.readouterr().err

    def test_missing_command_is_usage_error(self):
        assert run(["--dot", "--"]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert run(["--frobnicate", "--", "true"]) == 2

    def test_invalid_config_value_is_usage_error(self, capsys):
        assert run(["--max-file-mb", "0", "--", "true"]) == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--name", ""], "run_name must be non-empty"), (["--prefix", "a:b"], "colon")],
    )
    def test_unusable_name_or_prefix_is_usage_error_before_the_child_runs(
        self, project, capsys, flags, message
    ):
        child = "open('ran', 'w').close()"
        status = run([*flags, "--backend", "diff", "--", sys.executable, "-c", child])
        assert status == 2
        assert message in capsys.readouterr().err
        assert not (project / "ran").exists()
        assert not list(project.glob("prov_*"))

    def test_unspawnable_command(self, project, capsys):
        status = run(["--", "definitely-not-a-real-binary-zzz"])
        assert status == 127
        assert "cannot run" in capsys.readouterr().err
        assert not (project / "prov_0").exists()

    def test_golden_pipeline(self, project):
        status = run(["--backend", "diff", "--", sys.executable, "examples/main.py"])
        assert status == 0
        bundle = project / "prov_0"
        assert (bundle / "inputs" / "assets" / "results.csv").is_file()
        assert (bundle / "inputs" / "requirements.txt").is_file()
        assert (bundle / "outputs" / "example.png").is_file()
        assert (bundle / "src" / "examples" / "main.py").is_file()
        payload = json.loads((bundle / "provenance.json").read_bytes())
        assert len(payload["activity"]) == 1
        assert len(payload["agent"]) == 1
        assert len(payload["entity"]) == 4
        assert len(payload["wasGeneratedBy"]) == 1
        input_entity = payload["entity"]["yProv4DA:inputs/assets/results.csv"]
        assert input_entity["yprov:logged_by"] == "user"

    def test_child_failure_exit_status_preserved(self, project):
        status = run(
            ["--", sys.executable, "-c", "import sys; sys.exit(7)"]
        )
        assert status == 7
        payload = json.loads((project / "prov_0" / "provenance.json").read_bytes())
        activity = next(iter(payload["activity"].values()))
        assert activity["yprov:exit_status"] == "7"

    def test_child_stdout_passes_through(self, project, capfd):
        run(["--", sys.executable, "-c", "print('untouched output')"])
        assert "untouched output" in capfd.readouterr().out

    def test_dot_flag_writes_dot_file(self, project):
        status = run(
            ["--dot", "--backend", "diff", "--", sys.executable, "examples/main.py"]
        )
        assert status == 0
        assert (project / "prov_0" / "provenance.dot").is_file()

    def test_distinct_bundles_per_invocation(self, project):
        run(["--", sys.executable, "-c", "pass"])
        run(["--", sys.executable, "-c", "pass"])
        assert (project / "prov_0").is_dir()
        assert (project / "prov_1").is_dir()

    def test_svg_failure_after_successful_child_exits_3(self, project, capsys):
        # No graphviz in PATH here; if one is installed this still must
        # succeed, so force a bogus PATH for the wrapper's renderer lookup.
        old_path = os.environ["PATH"]
        os.environ["PATH"] = "/nonexistent"
        try:
            status = run(["--svg", "--", sys.executable, "-c", "pass"])
        finally:
            os.environ["PATH"] = old_path
        assert status == 3
        assert "provenance capture failed" in capsys.readouterr().err

    def test_explicit_trace_backend_without_tracer_fails_cleanly(
        self, project, monkeypatch, capsys
    ):
        monkeypatch.setenv("PATH", "/nonexistent")
        status = run(["--backend", "trace", "--", sys.executable, "examples/main.py"])
        assert status == 127
        assert "strace" in capsys.readouterr().err
        assert not (project / "prov_0").exists()

    @pytest.mark.skipif(shutil.which("strace") is None, reason="strace not installed")
    def test_trace_backend_end_to_end(self, project):
        status = run(
            ["--backend", "trace", "--", sys.executable, "examples/main.py"]
        )
        assert status == 0
        bundle = project / "prov_0"
        payload = json.loads((bundle / "provenance.json").read_bytes())
        assert "yProv4DA:outputs/example.png" in payload["entity"]
        assert "yProv4DA:inputs/assets/results.csv" in payload["entity"]
        # interpreter/library reads outside the watched roots stay out
        assert not any("/usr/" in key for key in payload["entity"])
        # every record names a file the run really read or wrote
        assert not [
            key
            for key, attrs in payload["entity"].items()
            if attrs.get("yprov:skip_reason") == "vanished"
        ]
        # a read through a symlinked leaf keeps the name the child used, and
        # a read through sub/.. lands where the path resolves
        outside = project.parent / "outside"
        outside.mkdir()
        (outside / "d.csv").write_text("target\n")
        (project / "link.csv").symlink_to("../outside/d.csv")
        (project / "sub").mkdir()
        (project / "b.csv").write_text("b\n")
        child = "open('link.csv').read(); open('sub/../b.csv').read()"
        assert run(["--backend", "trace", "--", sys.executable, "-c", child]) == 0
        bundle = project / "prov_1"
        payload = json.loads((bundle / "provenance.json").read_bytes())
        assert {"yProv4DA:inputs/link.csv", "yProv4DA:inputs/b.csv"} <= set(payload["entity"])
        assert (bundle / "inputs" / "link.csv").read_text() == "target\n"
        assert not [key for key in payload["entity"] if "_external" in key]

    def test_verbose_does_not_change_bundle_content(self, tmp_path, monkeypatch):
        results = {}
        for index, flags in enumerate(([], ["--verbose"])):
            workdir = tmp_path / f"run{index}"
            workdir.mkdir()
            write_sample_project(workdir)
            monkeypatch.chdir(workdir)
            run([*flags, "--backend", "diff", "--", sys.executable, "examples/main.py"])
            payload = json.loads(
                (workdir / "prov_0" / "provenance.json").read_bytes()
            )
            for attrs in payload["entity"].values():
                attrs["yprov:original_path"] = "<normalized>"
            for section in ("prefix", "entity", "used", "wasGeneratedBy"):
                results.setdefault(section, []).append(payload.get(section))
        for section, values in results.items():
            assert values[0] == values[1], section

    def test_both_input_flags_give_subset_mode(self, project):
        status = run(
            ["--backend", "diff", "--no-save-inputs", "--subset-inputs", "--",
             sys.executable, "examples/main.py"]
        )
        assert status == 0
        payload = json.loads((project / "prov_0" / "provenance.json").read_bytes())
        entity = payload["entity"]["yProv4DA:inputs/assets/results.csv"]
        assert entity["yprov:copied"] == "false"
        assert entity["yprov:skip_reason"] == "subset_mode"
        assert not (project / "prov_0" / "inputs" / "assets").exists()

    def test_vanished_record_builds_one_document_per_bundle(
        self, project, monkeypatch, caplog
    ):
        cli = importlib.import_module("provwrap.cli")
        bundle_module = importlib.import_module("provwrap.bundle")
        real_classify, real_build = cli.classify, cli.build_document
        builds = []

        def classify_then_remove(*args, **kwargs):
            segments = real_classify(*args, **kwargs)
            (project / "assets" / "results.csv").unlink()
            return segments

        def counting(*args, **kwargs):
            builds.append(args[0])
            return real_build(*args, **kwargs)

        monkeypatch.setattr(cli, "classify", classify_then_remove)
        monkeypatch.setattr(cli, "build_document", counting)
        monkeypatch.setattr(bundle_module, "build_document", counting)
        with caplog.at_level("WARNING"):
            status = run(["--backend", "diff", "--", sys.executable, "examples/main.py"])
        assert status == 0
        assert len(builds) == 1  # one bundle, one document
        payload = json.loads((project / "prov_0" / "provenance.json").read_bytes())
        entity = payload["entity"]["yProv4DA:inputs/assets/results.csv"]
        assert entity["yprov:copied"] == "false"
        assert entity["yprov:skip_reason"] == "vanished"
        assert any("vanished before copy" in r.getMessage() for r in caplog.records)

    def test_undecodable_control_line_loses_only_that_line(self, project, caplog):
        child = (
            "import os\n"
            "with open(os.environ['YPROV_CONTROL'], 'ab') as fh:\n"
            "    fh.write(b'INPUT\\tbad\\xff.txt\\nINPUT\\tassets/results.csv\\n')\n"
        )
        with caplog.at_level("WARNING"):
            status = run(["--backend", "diff", "--", sys.executable, "-c", child])
        assert status == 0
        payload = json.loads((project / "prov_0" / "provenance.json").read_bytes())
        entity = payload["entity"]["yProv4DA:inputs/assets/results.csv"]
        assert entity["yprov:logged_by"] == "user"
        assert any("control line 1" in r.getMessage() for r in caplog.records)

    def test_rejected_control_line_loses_only_that_line(self, project, caplog):
        (project / "a.csv").write_text("x\n1\n")
        (project / "b.txt").write_text("result\n")
        child = (
            "import os\n"
            "with open(os.environ['YPROV_CONTROL'], 'a') as fh:\n"
            "    fh.write('INPUT\\ta.csv\\nBOGUS\\tx\\nOUTPUT\\tb.txt\\n')\n"
        )
        with caplog.at_level("WARNING"):
            status = run(["--backend", "diff", "--", sys.executable, "-c", child])
        assert status == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and "line 2" in warnings[0], warnings
        payload = json.loads((project / "prov_0" / "provenance.json").read_bytes())
        for key in ("yProv4DA:inputs/a.csv", "yProv4DA:outputs/b.txt"):
            assert payload["entity"][key]["yprov:logged_by"] == "user"


    def test_external_paths_that_differ_only_by_separators_get_distinct_bundle_paths(
        self, project
    ):
        outside = project.parent / "ext"
        names = ["a/b__c", "a__b/c"]
        for name in names:
            (outside / name).parent.mkdir(parents=True, exist_ok=True)
            (outside / name).write_text(f"{name}\n")
        child = (
            "import os\n"
            "with open(os.environ['YPROV_CONTROL'], 'a') as fh:\n"
            "    fh.write('INPUT\\t../ext/a/b__c\\nINPUT\\t../ext/a__b/c\\n')\n"
        )
        status = run(["--backend", "diff", "--", sys.executable, "-c", child])
        assert status == 0
        external = project / "prov_0" / "_external"
        for name in names:
            mirrored = external / (outside / name).relative_to("/")
            assert mirrored.read_text() == f"{name}\n"

    def test_an_outside_file_and_a_working_directory_file_spelling_its_path_both_land(
        self, project
    ):
        outside = project.parent / "ext" / "x.csv"
        outside.parent.mkdir()
        outside.write_text("outside\n")
        spelled = Path("_external", *outside.parts[1:])  # cwd/_external/<abs>/ext/x.csv
        (project / spelled).parent.mkdir(parents=True)
        (project / spelled).write_text("inside\n")
        child = (
            "import os\n"
            "with open(os.environ['YPROV_CONTROL'], 'a') as fh:\n"
            f"    fh.write('INPUT\\t../ext/x.csv\\nINPUT\\t{spelled.as_posix()}\\n')\n"
        )
        status = run(["--backend", "diff", "--", sys.executable, "-c", child])
        assert status == 0
        bundle = project / "prov_0"
        assert (bundle / "_external" / outside.relative_to("/")).read_text() == "outside\n"
        assert (bundle / "inputs" / spelled).read_text() == "inside\n"

    def test_symlinked_input_keeps_its_name_and_watch_roots_apply_the_excludes(
        self, project
    ):
        data = project.parent / "data"
        shared = project.parent / "shared"
        (shared / "cache").mkdir(parents=True)
        data.mkdir()
        (data / "d.csv").write_text("target\n")
        (shared / "cache" / "f.csv").write_text("cached\n")
        (project / "link.csv").symlink_to("../data/d.csv")
        child = (
            "import os\n"
            "open('link.csv').read()\n"
            "with open(os.environ['YPROV_CONTROL'], 'a') as fh:\n"
            "    fh.write('INPUT\\tlink.csv\\nINPUT\\t../shared/cache/f.csv\\n')\n"
        )
        status = run(
            ["--backend", "diff", "--exclude", "cache", "--watch", "../shared", "--",
             sys.executable, "-c", child]
        )
        assert status == 0
        bundle = project / "prov_0"
        payload = json.loads((bundle / "provenance.json").read_bytes())
        linked = payload["entity"]["yProv4DA:inputs/link.csv"]
        assert linked["yprov:logged_by"] == "user"
        assert (bundle / "inputs" / "link.csv").read_text() == "target\n"
        assert not (bundle / "inputs" / "link.csv").is_symlink()
        # the walk of ../shared skips cache/, so its directive gives no record
        assert not [key for key in payload["entity"] if "_external" in key]
        assert not (bundle / "_external").exists()

    def test_missing_watch_directory_is_not_watched(self, project, caplog):
        nowhere = project.parent / "nowhere"
        child = (
            "import os\n"
            "with open(os.environ['YPROV_CONTROL'], 'a') as fh:\n"
            f"    fh.write('INPUT\\t{nowhere / 'x.csv'}\\n')\n"
        )
        with caplog.at_level("WARNING"):
            status = run(
                ["--backend", "diff", "--watch", str(nowhere), "--",
                 sys.executable, "-c", child]
            )
        assert status == 0
        payload = json.loads((project / "prov_0" / "provenance.json").read_bytes())
        assert not [key for key in payload["entity"] if "x.csv" in key]
        messages = [r.getMessage() for r in caplog.records]
        assert sum("watch directory does not exist" in m for m in messages) == 1
        assert sum("directive path does not exist" in m for m in messages) == 1

    def test_unreadable_paths_and_a_nul_cost_only_their_own_lines(self, project, deny, caplog):
        locked = project / "locked"
        (locked / "sub").mkdir(parents=True)
        (locked / "x.csv").write_text("x\n")
        (project / "data.csv").write_text("a,b\n")
        deny(locked / "sub", locked / "x.csv")
        child = (
            "import os\n"
            "with open(os.environ['YPROV_CONTROL'], 'a') as fh:\n"
            "    fh.write('INPUT\\tdata.csv\\nINPUT\\ta\\x00b/c.csv\\nINPUT\\tlocked/x.csv\\n')\n"
        )
        with caplog.at_level("WARNING"):
            status = run(
                ["--backend", "diff", "--watch", "locked/sub", "--", sys.executable, "-c", child]
            )
        assert status == 0
        assert (project / "prov_0" / "inputs" / "data.csv").read_text() == "a,b\n"
        messages = [r.getMessage() for r in caplog.records]
        for expected in (
            "watch directory does not exist or cannot be read, skipping",
            "directive path contains TAB/LF/NUL and was ignored: 'a\\x00b/c.csv'",
            "directive path does not exist or cannot be read: 'locked/x.csv'",
        ):
            assert sum(expected in m for m in messages) == 1, (expected, messages)


def _scripted_backend(calls, collect_error=None):
    """A backend that records how `run` drives it and observes nothing."""

    class Scripted:
        trace_order = False

        def __init__(self, scratch, cwd, config):
            calls.append(("construct", (scratch / "control").is_file()))

        def spawn_argv(self, command):
            calls.append(("spawn_argv", command))
            return command

        def collect(self, control_path):
            calls.append(("collect", Path("ran").is_file()))
            if collect_error is not None:
                raise collect_error
            return [], []

    return Scripted


class TestBackendInterface:
    def test_run_constructs_spawns_then_collects_once(self, project, monkeypatch):
        calls = []
        cli = importlib.import_module("provwrap.cli")
        monkeypatch.setattr(cli, "select_backend", lambda choice: _scripted_backend(calls))
        command = [sys.executable, "-c", "open('ran', 'w').close()"]
        assert run(["--", *command]) == 0
        # the control file exists before the backend; the child ran before collect
        assert calls == [("construct", True), ("spawn_argv", command), ("collect", True)]
        assert (project / "prov_0" / "provenance.json").is_file()

    @pytest.mark.parametrize("child_status, expected", [(0, 3), (4, 4)])
    def test_failing_collect_keeps_the_exit_code_contract(
        self, project, monkeypatch, capsys, child_status, expected
    ):
        calls = []
        backend = _scripted_backend(calls, collect_error=RuntimeError("collect broke"))
        cli = importlib.import_module("provwrap.cli")
        monkeypatch.setattr(cli, "select_backend", lambda choice: backend)
        status = run(["--", sys.executable, "-c", f"raise SystemExit({child_status})"])
        assert status == expected
        assert "collect broke" in capsys.readouterr().err
        assert [call[0] for call in calls] == ["construct", "spawn_argv", "collect"]
        assert not (project / "prov_0").exists()

    def test_trace_backend_spawns_strace_writing_into_the_scratch_directory(
        self, project, monkeypatch
    ):
        spawned = []

        def no_spawn(argv, env_overrides, spawn_argv=None):
            spawned.append((Path(env_overrides["YPROV_CONTROL"]).parent, spawn_argv))
            raise FileNotFoundError("not spawned in this test")

        cli = importlib.import_module("provwrap.cli")
        monkeypatch.setattr(cli, "capture_run", no_spawn)
        command = [sys.executable, "examples/main.py"]
        assert run(["--backend", "trace", "--", *command]) == 127
        [(scratch, argv)] = spawned
        prefix = ["strace", *cli._STRACE_ARGS, "-o"]
        assert argv[: len(prefix)] == prefix and argv[len(prefix) + 1 :] == command
        assert Path(argv[len(prefix)]).resolve() == scratch / "trace"


_HASH_CHILD = textwrap.dedent(
    """\
    import os

    with open(os.environ["YPROV_CONTROL"], "a") as fh:
        fh.write("INPUT\\tdata/input.csv\\n")
    with open("data/input.csv") as fh:
        fh.read()
    with open("data/edit.txt", "a") as fh:
        fh.write("more\\n")
    with open("out.txt", "w") as fh:
        fh.write("created\\n")
    """
)

_HASH_UNCHANGED = ["main.py"] + [f"data/u{i}.txt" for i in range(4)]


def _hash_project(workdir):
    """Write the _HASH_CHILD project into workdir; every file predates the run's stamp."""
    (workdir / "data").mkdir(parents=True)
    for rel in _HASH_UNCHANGED[1:]:
        (workdir / rel).write_text(f"unchanged {rel}\n")
    (workdir / "main.py").write_text(_HASH_CHILD)
    (workdir / "data" / "input.csv").write_text("x\n1\n")
    (workdir / "data" / "edit.txt").write_text("old\n")


def _count_hashes(monkeypatch):
    """Count sha256_file calls per path as monitor, classify and bundle make them.

    A source hashed as it is copied counts under its copy's path, as a copy
    read back does.
    """
    monitor = importlib.import_module("provwrap.monitor")
    real_hash = monitor.sha256_file
    calls = {caller: Counter() for caller in ("monitor", "classify", "bundle")}
    for caller, seen in calls.items():
        def counting(source, copy_to=None, seen=seen):
            seen[Path(source if copy_to is None else copy_to)] += 1
            return real_hash(source, copy_to=copy_to)

        module = importlib.import_module(f"provwrap.{caller}")
        monkeypatch.setattr(module, "sha256_file", counting)
    return calls


def _place(path, workdir):
    """(k, bundle-relative path) of a file in workdir's prov_k, or in the
    prov_k_tmp-… sibling that write_bundle builds prov_k in."""
    name, *rel = path.relative_to(workdir).parts
    return int(name.split("_")[1]), "/".join(rel)


def _places(paths, workdir):
    """The Counter of paths (a Counter or a list) by `_place`."""
    places = Counter()
    for path, count in Counter(paths).items():
        places[_place(path, workdir)] += count
    return places


class TestHashOncePerState:
    def test_each_file_is_hashed_once_per_state(self, tmp_path, monkeypatch):
        workdir = (tmp_path / "work").resolve()
        _hash_project(workdir)
        monkeypatch.chdir(workdir)
        calls = _count_hashes(monkeypatch)

        assert run(["--backend", "diff", "--", sys.executable, "main.py"]) == 0

        # unchanged and read-only files: the before-snapshot only; the
        # modified file again in the after-snapshot; the created file once
        assert calls["monitor"] == Counter(
            {workdir / rel: 1 for rel in [*_HASH_UNCHANGED, "data/input.csv"]}
            | {workdir / "data/edit.txt": 2, workdir / "out.txt": 1}
        )
        assert calls["classify"] == Counter()
        bundle = workdir / "prov_0"
        copies = {
            bundle / rel
            for rel in ("src/main.py", "inputs/data/input.csv",
                        "outputs/data/edit.txt", "outputs/out.txt")
        }
        assert all(path.is_file() for path in copies)
        # every digest was computed in this run, and no source's stat moved
        # since, so no copy is hashed
        assert calls["bundle"] == Counter()
        # the INPUT file: the before-snapshot only
        assert (
            calls["monitor"][workdir / "data/input.csv"]
            + calls["bundle"][bundle / "inputs/data/input.csv"]
            == 1
        )

    def test_a_warm_run_reads_back_the_copies_of_index_digests(
        self, tmp_path, monkeypatch
    ):
        workdir = (tmp_path / "work").resolve()
        _hash_project(workdir)
        monkeypatch.chdir(workdir)
        assert run(["--backend", "diff", "--", sys.executable, "main.py"]) == 0
        calls = _count_hashes(monkeypatch)

        assert run(["--backend", "diff", "--", sys.executable, "main.py"]) == 0

        # the index vouches for every file; the after-snapshot reads the
        # two the child wrote again
        assert calls["monitor"] == Counter([workdir / "data/edit.txt", workdir / "out.txt"])
        assert calls["classify"] == Counter()
        bundle = workdir / "prov_1"
        # out.txt got the same bytes again, so it is no output this time
        assert sorted(
            p.relative_to(bundle).as_posix()
            for p in bundle.rglob("*")
            if p.is_file() and p.parent != bundle
        ) == ["inputs/data/input.csv", "outputs/data/edit.txt", "src/main.py"]
        # edit.txt's digest is this run's; the other two came from the index
        assert _places(calls["bundle"], workdir) == Counter(
            [(1, "src/main.py"), (1, "inputs/data/input.csv")]
        )

    def test_a_warm_run_reads_a_large_index_input_once_as_it_copies_it(
        self, tmp_path, monkeypatch
    ):
        workdir = (tmp_path / "work").resolve()
        _hash_project(workdir)
        big = workdir / "data" / "input.csv"
        big.write_bytes(b"0123456789,abcd\n" * ((_HASH_THREAD_FROM + _HASH_CHUNK) // 16 + 1))
        size, inode = big.stat().st_size, big.stat().st_ino
        monkeypatch.chdir(workdir)
        assert run(_DIFF_RUN) == 0
        calls = _count_hashes(monkeypatch)
        read, sent, bundle_reads = [], [], []
        real_pread, real_preadv = os.pread, os.preadv
        real_sendfile, real_open = os.sendfile, os.open

        def pread(fd, length, offset):
            data = real_pread(fd, length, offset)
            if os.fstat(fd).st_ino == inode:
                read.append(len(data))
            return data

        def preadv(fd, buffers, offset):
            length = real_preadv(fd, buffers, offset)
            if os.fstat(fd).st_ino == inode:
                read.append(length)
            return length

        def sendfile(out_fd, in_fd, offset, count):
            sent.append(os.fstat(in_fd).st_ino)
            return real_sendfile(out_fd, in_fd, offset, count)

        def opening(path, flags, *args, **kwargs):
            if flags & os.O_ACCMODE == os.O_RDONLY and str(path).startswith(f"{workdir}/prov_"):
                bundle_reads.append(path)
            return real_open(path, flags, *args, **kwargs)

        for name, wrapper in [("pread", pread), ("preadv", preadv),
                              ("sendfile", sendfile), ("open", opening)]:
            monkeypatch.setattr(os, name, wrapper)

        assert run(_DIFF_RUN) == 0

        copy = workdir / "prov_1" / "inputs" / "data" / "input.csv"
        assert copy.read_bytes() == big.read_bytes()
        # the index vouched for its digest: hashed as it was copied, in one pass
        assert sum(read) == size
        assert bundle_reads == []
        assert _places(calls["bundle"], workdir)[(1, "inputs/data/input.csv")] == 1
        assert inode not in sent

    def test_file_written_just_before_the_run_is_hashed_once(self, tmp_path, monkeypatch):
        # The before-snapshot's stamp lets the after-snapshot reuse the
        # digest of a file written one ctime tick before the run.
        workdir = (tmp_path / "work").resolve()
        workdir.mkdir()
        (workdir / "main.py").write_text("pass\n")
        fresh = workdir / "fresh.bin"
        fresh.write_bytes(b"just written\n")
        monkeypatch.chdir(workdir)
        monitor = importlib.import_module("provwrap.monitor")
        real_hash = monitor.sha256_file
        hashed = Counter()

        def counting(path):
            hashed[Path(path)] += 1
            return real_hash(path)

        monkeypatch.setattr(monitor, "sha256_file", counting)
        assert run(["--backend", "diff", "--", sys.executable, "main.py"]) == 0
        assert hashed[fresh] == 1
        assert hashed[workdir / "main.py"] == 1


class TestCopyTrust:
    """A copy is trusted without being hashed only on a digest this run
    computed and a source whose stat has not moved since."""

    def test_a_stale_index_digest_is_caught_at_the_copy(
        self, tmp_path, monkeypatch, isolated_index_cache, capsys
    ):
        # the clock-step hole: the file's stat key is unchanged, its digest wrong
        workdir = (tmp_path / "work").resolve()
        _hash_project(workdir)
        monkeypatch.chdir(workdir)
        assert run(_DIFF_RUN) == 0
        index = index_file(isolated_index_cache.resolve() / "provwrap", workdir)
        snapshot = load_snapshot(index, workdir)
        entry = snapshot.entries["data/input.csv"]
        snapshot.entries["data/input.csv"] = entry[:2] + ("0" * 64,) + entry[3:]
        save_snapshot(snapshot, index)
        capsys.readouterr()

        assert run(_DIFF_RUN) == PROVENANCE_EXIT
        assert "digest mismatch" in capsys.readouterr().err

    def test_a_source_rewritten_after_the_snapshot_is_caught_at_the_copy(
        self, tmp_path, monkeypatch, capsys
    ):
        workdir = (tmp_path / "work").resolve()
        _hash_project(workdir)
        monkeypatch.chdir(workdir)
        _rewrite_after_classify(monkeypatch, workdir / "out.txt")
        assert run(_DIFF_RUN) == PROVENANCE_EXIT
        assert "digest mismatch" in capsys.readouterr().err

    def test_trace_copies_of_unchanged_sources_are_not_read_back(
        self, tmp_path, monkeypatch
    ):
        workdir = (tmp_path / "work").resolve()
        _hash_project(workdir)
        _install_fake_strace(tmp_path, monkeypatch, _HASH_STRACE)
        monkeypatch.chdir(workdir)
        calls = _count_hashes(monkeypatch)

        assert run(_TRACE_RUN) == 0

        # classify hashes each recorded file once, after its root's stamp,
        # which then vouches for the copy
        recorded = ["main.py", "data/input.csv", "data/edit.txt", "out.txt"]
        assert calls["classify"] == Counter(workdir / rel for rel in recorded)
        assert calls["monitor"] == Counter()
        assert calls["bundle"] == Counter()
        assert (workdir / "prov_0" / "outputs" / "out.txt").read_text() == "created\n"

    def test_a_trace_source_rewritten_after_classify_is_caught_at_the_copy(
        self, tmp_path, monkeypatch, capsys
    ):
        workdir = (tmp_path / "work").resolve()
        _hash_project(workdir)
        _install_fake_strace(tmp_path, monkeypatch, _HASH_STRACE)
        monkeypatch.chdir(workdir)
        _rewrite_after_classify(monkeypatch, workdir / "out.txt")
        assert run(_TRACE_RUN) == PROVENANCE_EXIT
        assert "digest mismatch" in capsys.readouterr().err


def _rewrite_after_classify(monkeypatch, path):
    """Make cli.run's classify rewrite path once it returns: same size and
    mtime, other bytes, so only its ctime tells."""
    cli = importlib.import_module("provwrap.cli")
    real_classify = cli.classify

    def classify_then_rewrite(*args, **kwargs):
        segments = real_classify(*args, **kwargs)
        st = os.stat(path)
        path.write_text(path.read_text().upper())
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        return segments

    monkeypatch.setattr(cli, "classify", classify_then_rewrite)


_TRACE_RUN = ["--backend", "trace", "--", sys.executable, "main.py"]

# _HASH_CHILD's opens of recorded files, as strace reports them
_HASH_STRACE = """\
import subprocess, sys
args = sys.argv[1:]
out = args.index("-o")
status = subprocess.call(args[out + 2:])
with open(args[out + 1], "w") as fh:
    for path, flags in (("main.py", "O_RDONLY"), ("data/input.csv", "O_RDONLY"),
                        ("data/edit.txt", "O_WRONLY|O_CREAT|O_APPEND"),
                        ("out.txt", "O_WRONLY|O_CREAT|O_TRUNC")):
        fh.write(f'9 openat(AT_FDCWD, "{path}", {flags}|O_CLOEXEC, 0666) = 3\\n')
sys.exit(status)
"""


_UNDECODABLE_CHILD = (
    "import os\n"
    "for name in (os.fsdecode(b'out\\xff.csv'), 'good.csv'):\n"
    "    with open(name, 'w') as fh:\n"
    "        fh.write('x\\n')\n"
)

_FAKE_STRACE = """\
import subprocess, sys
args = sys.argv[1:]
out = args.index("-o")
status = subprocess.call(args[out + 2:])
with open(args[out + 1], "wb") as fh:
    fh.write(b'9 openat(AT_FDCWD, "main.py", O_RDONLY|O_CLOEXEC) = 3\\n')
    fh.write(b'9 openat(AT_FDCWD, "out\\xff.csv", O_WRONLY|O_CREAT|O_TRUNC, 0666) = 3\\n')
    fh.write(b'9 openat(AT_FDCWD, "good.csv", O_WRONLY|O_CREAT|O_TRUNC, 0666) = 3\\n')
sys.exit(status)
"""


def _install_fake_strace(tmp_path, monkeypatch, source):
    """Put an executable `strace` that runs the Python source first on PATH."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    strace = bin_dir / "strace"
    strace.write_text(f"#!{sys.executable}\n{source}")
    strace.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")


class TestUndecodableFileName:
    @pytest.mark.parametrize("backend", ["diff", "trace"])
    def test_one_undecodable_name_loses_only_its_record(
        self, tmp_path, monkeypatch, caplog, backend
    ):
        workdir = (tmp_path / "work").resolve()
        workdir.mkdir()
        (workdir / "main.py").write_text(_UNDECODABLE_CHILD)
        if backend == "trace":
            _install_fake_strace(tmp_path, monkeypatch, _FAKE_STRACE)
        monkeypatch.chdir(workdir)
        with caplog.at_level("WARNING"):
            status = run(["--backend", backend, "--", sys.executable, "main.py"])
        assert status == 0
        bundle = workdir / "prov_0"
        assert (bundle / "outputs" / "good.csv").read_text() == "x\n"
        assert (bundle / "src" / "main.py").is_file()
        payload = json.loads((bundle / "provenance.json").read_bytes())
        assert sorted(payload["entity"]) == [
            "yProv4DA:outputs/good.csv",
            "yProv4DA:src/main.py",
        ]
        bad = repr(str(workdir / os.fsdecode(b"out\xff.csv")))
        assert any(bad in r.getMessage() for r in caplog.records)


_ANCHOR_CHILD = """\
import os
control = os.environ["YPROV_CONTROL"]
with open(control, "a") as fh:
    fh.write("BOGUS\\tx\\n")
with open("a.csv") as fh:
    fh.read()
with open(control, "a") as fh:
    fh.write("END_RUN\\tfirst\\n")
"""

# the child's opens as strace reports them: one control-file open per line
_ANCHOR_STRACE = """\
import os, subprocess, sys
args = sys.argv[1:]
out = args.index("-o")
status = subprocess.call(args[out + 2:])
control = os.environ["YPROV_CONTROL"]
with open(args[out + 1], "w") as fh:
    fh.write('9 openat(AT_FDCWD, "main.py", O_RDONLY|O_CLOEXEC) = 3\\n')
    for path, flags in ((control, "O_WRONLY|O_CREAT|O_APPEND"), ("a.csv", "O_RDONLY"),
                        (control, "O_WRONLY|O_CREAT|O_APPEND")):
        fh.write(f'9 openat(AT_FDCWD, "{path}", {flags}|O_CLOEXEC, 0666) = 3\\n')
sys.exit(status)
"""


class TestTraceAnchoring:
    def test_a_rejected_line_keeps_later_directives_at_their_own_open(
        self, tmp_path, monkeypatch, caplog
    ):
        workdir = (tmp_path / "work").resolve()
        workdir.mkdir()
        (workdir / "main.py").write_text(_ANCHOR_CHILD)
        (workdir / "a.csv").write_text("x\n1\n")
        _install_fake_strace(tmp_path, monkeypatch, _ANCHOR_STRACE)
        monkeypatch.chdir(workdir)
        with caplog.at_level("WARNING"):
            status = run(["--backend", "trace", "--", sys.executable, "main.py"])
        assert status == 0
        assert any("control line 1" in r.getMessage() for r in caplog.records)
        # END_RUN is control line 2, so it is anchored at the second open,
        # after the read of a.csv: a.csv belongs to the bundle it closes
        first = json.loads((workdir / "prov_0" / "provenance.json").read_bytes())
        assert list(first["activity"]) == ["yProv4DA:first"]
        assert "yProv4DA:inputs/a.csv" in first["entity"]
        rest = json.loads((workdir / "prov_1" / "provenance.json").read_bytes())
        assert "yProv4DA:inputs/a.csv" not in rest["entity"]


_SEGMENTED_CHILD = textwrap.dedent(
    """\
    import os

    control = os.environ["YPROV_CONTROL"]
    for k in range(3):
        with open(f"out{k}.txt", "w") as fh:
            fh.write(f"chart {k}\\n")
        with open(control, "a") as fh:
            fh.write("INPUT\\tdata/in.csv\\nINPUT\\tdata/same.csv\\n")
            fh.write(f"OUTPUT\\tout{k}.txt\\n")
            if k < 2:
                fh.write("END_RUN\\n")
    """
)


_SEGMENTED_READER = textwrap.dedent(
    """\
    import os

    with open(os.environ["YPROV_CONTROL"], "a") as fh:
        for k in range(3):
            fh.write("INPUT\\tdata/in.csv\\nINPUT\\tdata/same.csv\\n")
            if k < 2:
                fh.write("END_RUN\\n")
    """
)


def _segmented_project(workdir):
    (workdir / "data").mkdir(parents=True)
    (workdir / "data" / "in.csv").write_text("x,y\n1,2\n")
    (workdir / "data" / "same.csv").write_text("x,y\n1,2\n")
    (workdir / "main.py").write_text(_SEGMENTED_CHILD)


def _copied_files(workdir):
    return sorted(
        path
        for bundle in sorted(workdir.glob("prov_*"))
        for path in bundle.rglob("*")
        if path.is_file() and path.parent != bundle
    )


def _normalized_provenance(bundle, workdir):
    payload = json.loads((bundle / "provenance.json").read_bytes())
    for attrs in payload["entity"].values():
        attrs["yprov:original_path"] = attrs["yprov:original_path"].replace(
            str(workdir), "<CWD>"
        )
    for attrs in payload["activity"].values():
        for key in ("prov:startTime", "prov:endTime"):
            attrs[key] = "<TIMESTAMP>"
    return payload


class TestLinkRepeatedContent:
    """Three END_RUN segments each copy data/in.csv, its twin data/same.csv,
    main.py and their own output: 12 copies of 5 distinct contents."""

    def _run(self, workdir, monkeypatch):
        """Run the child in workdir; return the files write_bundle copied,
        by sendfile or hashed as written."""
        bundle_module = importlib.import_module("provwrap.bundle")
        real_copy, real_hash = bundle_module._copy_from, bundle_module.sha256_file
        created = []

        def counting(source, destination):
            created.append(destination)
            return real_copy(source, destination)

        def hashing(source, copy_to=None):
            if copy_to is not None:
                created.append(copy_to)
            return real_hash(source, copy_to=copy_to)

        monkeypatch.setattr(bundle_module, "_copy_from", counting)
        monkeypatch.setattr(bundle_module, "sha256_file", hashing)
        monkeypatch.chdir(workdir)
        try:
            assert run(["--backend", "diff", "--", sys.executable, "main.py"]) == 0
        finally:
            monkeypatch.setattr(bundle_module, "_copy_from", real_copy)
            monkeypatch.setattr(bundle_module, "sha256_file", real_hash)
        return created

    def test_repeated_content_is_one_read_only_inode(self, tmp_path, monkeypatch):
        workdir = (tmp_path / "work").resolve()
        _segmented_project(workdir)
        created = self._run(workdir, monkeypatch)

        files = _copied_files(workdir)
        assert len(files) == 12
        assert len(created) == len({os.stat(p).st_ino for p in files}) == 5
        csvs = [
            workdir / f"prov_{k}" / "inputs" / "data" / name
            for k in range(3)
            for name in ("in.csv", "same.csv")
        ]
        scripts = [workdir / f"prov_{k}" / "src" / "main.py" for k in range(3)]
        for shared in (csvs, scripts):
            assert len({os.stat(p).st_ino for p in shared}) == 1
            assert os.stat(shared[0]).st_nlink == len(shared)
            assert stat.S_IMODE(os.stat(shared[0]).st_mode) & 0o222 == 0
        outputs = [workdir / f"prov_{k}" / "outputs" / f"out{k}.txt" for k in range(3)]
        assert all(os.stat(p).st_mode & 0o200 for p in outputs)
        # never linked to the source
        assert os.stat(workdir / "data" / "in.csv").st_nlink == 1
        assert os.stat(workdir / "data" / "in.csv").st_mode & 0o200

    def test_refused_link_falls_back_to_identical_copies(self, tmp_path, monkeypatch):
        linked = (tmp_path / "linked").resolve()
        copied = (tmp_path / "copied").resolve()
        for workdir in (linked, copied):
            _segmented_project(workdir)
        self._run(linked, monkeypatch)

        def refuse(*args, **kwargs):
            raise OSError(errno.EPERM, "Operation not permitted")

        monkeypatch.setattr(os, "link", refuse)
        created = self._run(copied, monkeypatch)
        monkeypatch.undo()

        assert len(created) == 12
        assert len({os.stat(p).st_ino for p in _copied_files(copied)}) == 12
        for k in range(3):
            a, b = linked / f"prov_{k}", copied / f"prov_{k}"
            assert _normalized_provenance(a, linked) == _normalized_provenance(b, copied)
            files = [p.relative_to(a) for p in a.rglob("*") if p.is_file()]
            assert files == [p.relative_to(b) for p in b.rglob("*") if p.is_file()]
            for rel in files:
                if rel.parent != Path("."):  # copied artifacts
                    assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
            crates = [
                json.loads((bundle / "ro-crate-metadata.json").read_bytes())
                for bundle in (a, b)
            ]
            for crate in crates:
                for node in crate["@graph"]:
                    node.pop("datePublished", None)
            assert crates[0] == crates[1]

    def test_a_second_run_starts_with_an_empty_table(self, tmp_path, monkeypatch):
        workdir = (tmp_path / "work").resolve()
        _segmented_project(workdir)
        for _ in range(2):
            created = self._run(workdir, monkeypatch)
            assert len(created) == 5
            assert len(_copied_files(workdir)) == 12
            for bundle in workdir.glob("prov_*"):
                shutil.rmtree(bundle)


    def test_only_copies_are_read_back_never_links(self, tmp_path, monkeypatch):
        # A warm run: every digest comes from the index, so each copy is
        # hashed once, as it is written; the links to it are not read at all.
        workdir = (tmp_path / "work").resolve()
        _segmented_project(workdir)
        (workdir / "main.py").write_text(_SEGMENTED_READER)
        self._run(workdir, monkeypatch)
        calls = _count_hashes(monkeypatch)

        created = self._run(workdir, monkeypatch)

        bundles = [workdir / f"prov_{k}" for k in (3, 4, 5)]
        copied = [
            bundle / rel
            for bundle in bundles
            for rel in ("inputs/data/in.csv", "inputs/data/same.csv", "src/main.py")
        ]
        assert all(path.is_file() for path in copied)
        assert [_place(path, workdir) for path in created] == [
            (3, "inputs/data/in.csv"), (3, "src/main.py")
        ]
        assert calls["bundle"] == Counter(created)
        assert calls["monitor"] == calls["classify"] == Counter()


class TestSegmentsAllocateUpward:
    def test_each_segment_starts_above_the_last_bundle(self, tmp_path, monkeypatch):
        workdir = (tmp_path / "work").resolve()
        _segmented_project(workdir)
        (workdir / "prov_0").mkdir()
        (workdir / "prov_2").mkdir()
        cli = importlib.import_module("provwrap.cli")
        real = cli.allocate_run_dir
        calls = []

        def recording(base_name, parent, start=0):
            path = real(base_name, parent, start)
            calls.append((start, path.name))
            return path

        monkeypatch.setattr(cli, "allocate_run_dir", recording)
        monkeypatch.chdir(workdir)
        assert run(["--backend", "diff", "--", sys.executable, "main.py"]) == 0
        # the same directories as "smallest free k", without probing below
        assert calls == [(0, "prov_1"), (2, "prov_3"), (4, "prov_4")]


_LOSING_CHILD = textwrap.dedent(
    """\
    import os

    with open(os.environ["YPROV_CONTROL"], "a") as fh:
        for names in (["a.csv"], ["shared.csv", "b.csv"], ["shared.csv", "c.csv"]):
            for name in names:
                fh.write(f"INPUT\\t{name}\\n")
            fh.write("END_RUN\\n")
    """
)


@pytest.mark.parametrize("failing", ["json copy", "bundle"])
def test_a_bundle_is_lost_exactly_when_it_is_absent(tmp_path, monkeypatch, capsys, failing):
    """With --json, the failed rename of either the prov_0.provenance.json copy
    or the bundle itself costs the segment, and leaves neither behind."""
    workdir = (tmp_path / "work").resolve()
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    real_rename = os.rename

    def refuse(source, destination):
        source, destination = os.fspath(source), os.fspath(destination)
        if destination.endswith(".provenance.json") == (failing == "json copy"):
            raise OSError(errno.ENOSPC, "No space left on device", source, None, destination)
        return real_rename(source, destination)

    monkeypatch.setattr(os, "rename", refuse)
    capsys.readouterr()
    child = "open('out.txt', 'w').write('x')"
    status = run(["--backend", "diff", "--json", "--", sys.executable, "-c", child])
    err = capsys.readouterr().err
    assert status == PROVENANCE_EXIT
    assert "provenance capture failed: segment 'experiment_run' (1 of 1)" in err
    assert sorted(p.name for p in workdir.iterdir()) == ["out.txt"]


class TestALostSegmentCostsOnlyItsBundle:
    """Four segments: a.csv; shared.csv and b.csv, whose copy's digest is
    wrong; shared.csv and c.csv; the trailing one. Every copy is hashed as
    it is written."""

    def _run(self, tmp_path, monkeypatch, capsys):
        workdir = (tmp_path / "work").resolve()
        workdir.mkdir()
        (workdir / "main.py").write_text(_LOSING_CHILD)
        for name in ("a.csv", "b.csv", "c.csv", "shared.csv"):
            (workdir / name).write_text(f"{name}\n")
        monkeypatch.chdir(workdir)
        bundle_module = importlib.import_module("provwrap.bundle")
        real_hash = bundle_module.sha256_file
        hashed = []

        def wrong_for_b(source, copy_to=None):
            path = Path(source if copy_to is None else copy_to)
            hashed.append(path)
            digest = real_hash(source, copy_to=copy_to)
            return "0" * 64 if path.name == "b.csv" else digest

        monkeypatch.setattr(bundle_module, "unchanged_since", lambda *args: False)
        monkeypatch.setattr(bundle_module, "sha256_file", wrong_for_b)
        capsys.readouterr()
        status = run(_DIFF_RUN)
        return workdir, status, hashed, capsys.readouterr().err

    def test_the_other_segments_are_bundled_under_contiguous_numbers(
        self, tmp_path, monkeypatch, capsys
    ):
        workdir, status, _, err = self._run(tmp_path, monkeypatch, capsys)
        assert status == PROVENANCE_EXIT
        assert "provenance capture failed: segment 'experiment_run_1' (2 of 4)" in err
        assert "digest mismatch" in err and "_tmp-" not in err
        assert sorted(p.name for p in workdir.glob("prov_*")) == ["prov_0", "prov_1", "prov_2"]
        inputs = {
            k: sorted(p.name for p in (workdir / f"prov_{k}" / "inputs").iterdir())
            for k in (0, 1)
        }
        assert inputs == {0: ["a.csv"], 1: ["c.csv", "shared.csv"]}
        names = [
            next(iter(json.loads((workdir / f"prov_{k}" / "provenance.json").read_bytes())["activity"]))
            for k in range(3)
        ]
        assert names == [f"yProv4DA:experiment_run{suffix}" for suffix in ("", "_2", "_3")]
        assert not (workdir / "prov_2" / "inputs").exists()

    def test_a_later_bundle_copies_content_the_lost_bundle_held(
        self, tmp_path, monkeypatch, capsys
    ):
        # The lost bundle copied shared.csv before b.csv failed; that copy
        # went with its temporary, so prov_1 must not link to it.
        workdir, status, hashed, _ = self._run(tmp_path, monkeypatch, capsys)
        assert status == PROVENANCE_EXIT
        shared = workdir / "prov_1" / "inputs" / "shared.csv"
        assert shared.read_text() == "shared.csv\n"
        assert os.stat(shared).st_nlink == 1
        reads = [path for path in hashed if path.name == "shared.csv"]
        # the lost bundle's copy, then prov_1's own, each in its own temporary
        assert [_place(path, workdir) for path in reads] == [(1, "inputs/shared.csv")] * 2
        assert reads[0] != reads[1]


def _count_snapshot_hashes(monkeypatch):
    """Count monitor.sha256_file calls per take_snapshot call made by cli.run.

    Returns a list that gets one Counter of hashed paths per snapshot.
    """
    cli = importlib.import_module("provwrap.cli")
    monitor = importlib.import_module("provwrap.monitor")
    real_hash, real_take = monitor.sha256_file, cli.take_snapshot
    per_snapshot = []

    def counting(path):
        per_snapshot[-1][Path(path)] += 1
        return real_hash(path)

    def taking(*args, **kwargs):
        per_snapshot.append(Counter())
        return real_take(*args, **kwargs)

    monkeypatch.setattr(monitor, "sha256_file", counting)
    monkeypatch.setattr(cli, "take_snapshot", taking)
    return per_snapshot


_DIFF_RUN = ["--backend", "diff", "--", sys.executable, "main.py"]


class TestDigestIndexAcrossRuns:
    def _tree(self, workdir):
        (workdir / "data").mkdir(parents=True)
        (workdir / "main.py").write_text("pass\n")
        for i in range(4):
            (workdir / "data" / f"f{i}.txt").write_text(f"file {i}\n")
        return {workdir / "main.py"} | {workdir / "data" / f"f{i}.txt" for i in range(4)}

    def test_second_run_hashes_only_what_changed(
        self, tmp_path, monkeypatch, isolated_index_cache
    ):
        workdir = (tmp_path / "work").resolve()
        everything = self._tree(workdir)
        monkeypatch.chdir(workdir)
        hashed = _count_snapshot_hashes(monkeypatch)
        assert run(_DIFF_RUN) == 0
        assert len(hashed) == 2
        assert hashed[0] == Counter(everything)  # no index yet: cold
        indexes = isolated_index_cache / "provwrap"
        assert stat.S_IMODE(os.stat(indexes).st_mode) == 0o700
        assert [p.suffix for p in indexes.iterdir()] == [".index"]

        changed = workdir / "data" / "f1.txt"
        changed.write_text("changed\n")
        created = workdir / "data" / "new.txt"
        created.write_text("new\n")
        (workdir / "data" / "f2.txt").unlink()
        hashed.clear()
        assert run(_DIFF_RUN) == 0
        assert hashed[0] == Counter([changed, created])
        payload = json.loads((workdir / "prov_1" / "provenance.json").read_bytes())
        assert sorted(payload["entity"]) == ["yProv4DA:src/main.py"]

    def test_damaged_index_gives_a_cold_run_and_a_warning(
        self, tmp_path, monkeypatch, isolated_index_cache, caplog
    ):
        workdir = (tmp_path / "work").resolve()
        everything = self._tree(workdir)
        monkeypatch.chdir(workdir)
        assert run(_DIFF_RUN) == 0
        (index,) = (isolated_index_cache / "provwrap").iterdir()
        index.write_bytes(index.read_bytes()[:-10])
        hashed = _count_snapshot_hashes(monkeypatch)
        with caplog.at_level("WARNING"):
            assert run(_DIFF_RUN) == 0
        assert hashed[0] == Counter(everything)
        assert [r.getMessage() for r in caplog.records] == [
            f"ignoring digest index {index}: truncated: last line is incomplete"
        ]
        assert (workdir / "prov_1" / "provenance.json").is_file()

    def test_unusable_cache_directory_gives_a_silent_cold_run(
        self, tmp_path, monkeypatch, caplog
    ):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        workdir = (tmp_path / "work").resolve()
        everything = self._tree(workdir)
        monkeypatch.chdir(workdir)
        hashed = _count_snapshot_hashes(monkeypatch)
        with caplog.at_level("INFO"):
            for _ in range(2):
                hashed.clear()
                assert run(_DIFF_RUN) == 0
                assert hashed[0] == Counter(everything)
        assert caplog.records == []
        assert blocker.read_text() == ""

    def test_cache_inside_the_working_directory_is_not_used(self, tmp_path, monkeypatch):
        inside = (tmp_path / "inside").resolve()
        plain = (tmp_path / "plain").resolve()
        blocker = tmp_path / "no-cache"
        blocker.write_text("")
        for workdir, cache in ((inside, inside / ".cache"), (plain, blocker)):
            workdir.mkdir()
            write_sample_project(workdir)
            monkeypatch.chdir(workdir)
            monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
            for _ in range(2):
                assert run(["--backend", "diff", "--", sys.executable, "examples/main.py"]) == 0
        assert not (inside / ".cache").exists()
        for k in range(2):
            a, b = inside / f"prov_{k}", plain / f"prov_{k}"
            assert _normalized_provenance(a, inside) == _normalized_provenance(b, plain)
            files = sorted(p.relative_to(a) for p in a.rglob("*"))
            assert files == sorted(p.relative_to(b) for p in b.rglob("*"))

    def test_saving_a_65th_index_removes_the_oldest(self, tmp_path):
        directory = tmp_path / "indexes"
        directory.mkdir()
        oldest = time.time_ns() - 10**12
        earlier = []
        for k in range(INDEX_FILES_KEPT):
            path = directory / f"{k:064x}.index"
            path.write_text("an index of another root\n")
            os.utime(path, ns=(oldest + k * 10**9,) * 2)
            earlier.append(path)
        root = (tmp_path / "root").resolve()
        root.mkdir()
        save_indexes(directory, [take_snapshot(root)])
        assert sorted(directory.iterdir()) == sorted(
            earlier[1:] + [index_file(directory, root)]
        )


_WATCH_CHILD = textwrap.dedent(
    """\
    import os

    with open(os.environ["YPROV_CONTROL"], "a") as fh:
        fh.write("INPUT\\tsub/a.csv\\n")
    with open("sub/a.csv") as fh:
        fh.read()
    with open("sub/out.txt", "w") as fh:
        fh.write("made\\n")
    """
)


class TestNestedWatchDirectory:
    def test_watch_directory_inside_cwd_is_snapshotted_once(
        self, tmp_path, monkeypatch, caplog
    ):
        hashed = _count_snapshot_hashes(monkeypatch)
        bundles = {}
        for name, flags in (("plain", []), ("watched", ["--watch", "sub", "--watch", "sub/"])):
            workdir = (tmp_path / name).resolve()
            (workdir / "sub").mkdir(parents=True)
            (workdir / "sub" / "a.csv").write_text("x\n1\n")
            (workdir / "main.py").write_text(_WATCH_CHILD)
            monkeypatch.chdir(workdir)
            hashed.clear()
            with caplog.at_level("WARNING"):
                assert run(["--backend", "diff", *flags, "--", sys.executable, "main.py"]) == 0
            # one root: a before- and an after-snapshot, each file hashed once
            assert hashed == [
                Counter([workdir / "main.py", workdir / "sub" / "a.csv"]),
                Counter([workdir / "sub" / "out.txt"]),
            ]
            bundle = workdir / "prov_0"
            bundles[name] = (
                _normalized_provenance(bundle, workdir),
                sorted(p.relative_to(bundle) for p in bundle.rglob("*")),
            )
        assert bundles["plain"] == bundles["watched"]
        assert caplog.records == []


_OUTER_CHILD = textwrap.dedent(
    """\
    with open("a.csv") as fh:
        fh.read()
    with open("out.txt", "a") as fh:
        fh.write("out\\n")
    with open("../made.txt", "w") as fh:
        fh.write("made\\n")
    """
)


class TestWatchDirectoryContainingCwd:
    def test_each_file_is_snapshotted_once_and_no_bundle_ever(
        self, tmp_path, monkeypatch
    ):
        outer = (tmp_path / "outer").resolve()
        workdir = outer / "work"
        workdir.mkdir(parents=True)
        (outer / "side.csv").write_text("s\n")
        (workdir / "a.csv").write_text("x\n1\n")
        (workdir / "main.py").write_text(_OUTER_CHILD)
        monkeypatch.chdir(workdir)
        hashed = _count_snapshot_hashes(monkeypatch)
        for _ in range(2):
            assert run(
                ["--backend", "diff", "--watch", "..", "--", sys.executable, "main.py"]
            ) == 0
        # two runs, each a before- and an after-snapshot of cwd and of ..
        assert len(hashed) == 8
        pairs = [hashed[k] + hashed[k + 1] for k in range(0, 8, 2)]
        for pair in pairs:
            assert max(pair.values(), default=0) <= 1, pair
        assert pairs[0] == Counter(
            [workdir / "a.csv", workdir / "main.py", outer / "side.csv"]
        )
        assert pairs[1] == Counter([workdir / "out.txt", outer / "made.txt"])
        in_bundles = [
            path
            for path in set().union(*hashed)
            if any(part.startswith("prov_") for part in path.relative_to(outer).parts)
        ]
        assert in_bundles == []
        assert (workdir / "prov_1" / "outputs" / "out.txt").is_file()
