"""Wrapper CLI: flag mapping, timeline unification, end-to-end pipeline."""

import importlib
import json
import os
import shutil
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest

from provwrap import Backend, ControlDirective, DirectiveKind, EventKind, FileEvent
from provwrap.cli import (
    build_arg_parser,
    config_from_args,
    detect_entry_script,
    run,
    unify_timeline,
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
        assert config.backend is Backend.AUTO

    def test_each_flag_maps(self):
        config = _parse_config(
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
        assert config.run_name == "fig3"
        assert config.provenance_directory == "bundles"
        assert config.prefix == "lab"
        assert config.default_namespace == "https://lab.example/"
        assert config.create_json_file and config.create_dot_file and config.create_svg_file
        assert config.create_rocrate is False
        assert config.save_input_files_full is False
        assert config.save_input_files_subset is True
        assert config.skip_files_larger_than == 5
        assert config.source_extensions == frozenset({".R", ".jl"})
        assert config.source_roots == ("helpers",)
        assert config.watch_dirs == (Path("/data"),)
        assert "*.log" in config.excludes
        assert config.backend is Backend.DIFF
        assert config.verbose is True


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


class TestUnifyTimeline:
    def test_diff_mode_anchors_events_to_mentioning_directive(self, tmp_path):
        a = (tmp_path / "a.png").resolve()
        b = (tmp_path / "b.png").resolve()
        events = [
            FileEvent(path=a, kind=EventKind.CREATED, seq=0),
            FileEvent(path=b, kind=EventKind.CREATED, seq=1),
        ]
        directives = [
            ControlDirective(kind=DirectiveKind.OUTPUT, path=str(a), seq=0),
            ControlDirective(kind=DirectiveKind.END_RUN, run_name="first", seq=1),
        ]
        out_events, out_directives = unify_timeline(
            events, directives, None, trace_order=False, cwd=tmp_path
        )
        seq_of = {e.path: e.seq for e in out_events}
        end_run_seq = next(
            d.seq for d in out_directives if d.kind is DirectiveKind.END_RUN
        )
        assert seq_of[a] < end_run_seq  # anchored into the first segment
        assert seq_of[b] > end_run_seq  # unmentioned events trail

    def test_trace_mode_anchors_directives_at_control_writes(self, tmp_path):
        control = (tmp_path / "control").resolve()
        out = (tmp_path / "a.png").resolve()
        later = (tmp_path / "b.png").resolve()
        events = [
            FileEvent(path=out, kind=EventKind.WRITE_INTENT, seq=0),
            FileEvent(path=control, kind=EventKind.WRITE_INTENT, seq=1),
            FileEvent(path=later, kind=EventKind.WRITE_INTENT, seq=2),
        ]
        directives = [
            ControlDirective(kind=DirectiveKind.END_RUN, run_name="first", seq=0)
        ]
        out_events, out_directives = unify_timeline(
            events, directives, control, trace_order=True
        )
        assert all(e.path != control for e in out_events)
        end_run_seq = out_directives[0].seq
        seq_of = {e.path: e.seq for e in out_events}
        assert seq_of[out] < end_run_seq < seq_of[later]


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


class TestHashOncePerState:
    def test_each_file_is_hashed_once_per_state(self, tmp_path, monkeypatch):
        workdir = (tmp_path / "work").resolve()
        (workdir / "data").mkdir(parents=True)
        unchanged = ["main.py"] + [f"data/u{i}.txt" for i in range(4)]
        for rel in unchanged[1:]:
            (workdir / rel).write_text(f"unchanged {rel}\n")
        (workdir / "main.py").write_text(_HASH_CHILD)
        (workdir / "data" / "input.csv").write_text("x\n1\n")
        (workdir / "data" / "edit.txt").write_text("old\n")
        monkeypatch.chdir(workdir)

        monitor = importlib.import_module("provwrap.monitor")
        # every file above was written long enough ago to be reusable
        real_now = time.time_ns
        monkeypatch.setattr(monitor, "time_ns", lambda: real_now() + 10 * 10**9)
        real_hash = monitor.sha256_file
        calls = {caller: Counter() for caller in ("monitor", "classify", "bundle")}
        for caller, seen in calls.items():
            def counting(path, seen=seen):
                seen[Path(path)] += 1
                return real_hash(path)

            module = importlib.import_module(f"provwrap.{caller}")
            monkeypatch.setattr(module, "sha256_file", counting)

        assert run(["--backend", "diff", "--", sys.executable, "main.py"]) == 0

        # unchanged and read-only files: the before-snapshot only; the
        # modified file again in the after-snapshot; the created file once
        assert calls["monitor"] == Counter(
            {workdir / rel: 1 for rel in [*unchanged, "data/input.csv"]}
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
        assert calls["bundle"] == Counter({path: 1 for path in copies})
        # the INPUT file: the before-snapshot and the post-copy check
        assert (
            calls["monitor"][workdir / "data/input.csv"]
            + calls["bundle"][bundle / "inputs/data/input.csv"]
            == 2
        )
