"""Shared builders for provenance-model test inputs."""

import contextlib
import errno
import importlib
import os
import textwrap
import threading
from datetime import datetime, timezone
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import settings

from provwrap import ArtifactRecord, Category, LoggedBy, RunConfig, RunMetadata

# HYPOTHESIS_PROFILE=ci draws more examples per property, with no deadline,
# for a CI runner's spare time; a test's own @settings still win.
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_meta(**overrides) -> RunMetadata:
    values = dict(
        command="python examples/main.py",
        argv=["python", "examples/main.py"],
        start_time=datetime(2026, 8, 10, 9, 0, 0, 0, tzinfo=timezone.utc),
        end_time=datetime(2026, 8, 10, 9, 0, 2, 500000, tzinfo=timezone.utc),
        exit_status=0,
        username="alice",
        hostname="workbench",
        cwd=Path("/work"),
        git_commit=None,
    )
    values.update(overrides)
    return RunMetadata(**values)


def make_record(bundle_path="inputs/results.csv", **overrides) -> ArtifactRecord:
    values = dict(
        original_path=Path("/work") / bundle_path.split("/", 1)[1],
        bundle_relative_path=bundle_path,
        category=Category.INPUT,
        also_generated=False,
        logged_by=LoggedBy.AUTO,
        sha256="a" * 64,
        size_bytes=120,
        copied=True,
        skip_reason=None,
    )
    values.update(overrides)
    return ArtifactRecord(**values)


def returns_within(seconds: float, fifo: Path, fn, *args):
    """Return fn(*args), run on a thread; fail when it has not returned
    within seconds, after opening fifo for writing so that an open of it
    blocked waiting for a writer lets the thread go."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn(*args)), daemon=True)
    worker.start()
    worker.join(seconds)
    if worker.is_alive():
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        worker.join(seconds)
        pytest.fail(f"{fn.__name__} blocked on the FIFO {fifo}")
    assert result, f"{fn.__name__} raised"
    return result[0]


def is_normalized(name: str) -> bool:
    """True for a name monitor.matches_exclusion takes: "." or a name with no
    empty, "." or ".." component and no trailing "/" (one leading "/" at most)."""
    return (
        name == str(PurePosixPath(name))
        and ".." not in name.split("/")
        and not name.startswith("//")
    )


@contextlib.contextmanager
def only_normalized_exclusion_names():
    """Within it, monitor's and classify's matches_exclusion fail on any name
    that is_normalized refuses."""
    with pytest.MonkeyPatch.context() as patch:
        for module in ("provwrap.monitor", "provwrap.classify"):
            module = importlib.import_module(module)

            def guarded(rel_path, patterns, real=module.matches_exclusion):
                assert is_normalized(rel_path), rel_path
                return real(rel_path, patterns)

            patch.setattr(module, "matches_exclusion", guarded)
        yield


def write_sample_project(workdir: Path) -> None:
    """The deterministic golden fixture: a script that reads
    assets/results.csv, logs it on the control channel, and writes an
    example.png analog. Re-running the copied script from the original
    working directory reproduces the output byte for byte."""
    (workdir / "assets").mkdir()
    (workdir / "examples").mkdir()
    (workdir / "assets" / "results.csv").write_text("x,points\n0,1\n1,4\n2,9\n")
    (workdir / "requirements.txt").write_text("pandas==2.2\n")
    (workdir / "examples" / "main.py").write_text(
        textwrap.dedent(
            """\
            import csv
            import os

            control = os.environ.get("YPROV_CONTROL")
            if control:
                with open(control, "a") as fh:
                    fh.write("INPUT\\tassets/results.csv\\n")

            with open("assets/results.csv") as fh:
                rows = list(csv.reader(fh))
            total = sum(int(row[1]) for row in rows[1:])
            with open("example.png", "wb") as fh:
                fh.write(b"\\x89PNG-analog:" + str(total).encode())
            """
        )
    )


@pytest.fixture(autouse=True)
def isolated_index_cache(tmp_path_factory, monkeypatch) -> Path:
    """Give each test its own XDG_CACHE_HOME, so no test reads or writes the
    real home directory's digest indexes or shares one with another test."""
    cache = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache


@pytest.fixture
def meta() -> RunMetadata:
    return make_meta()


@pytest.fixture
def config() -> RunConfig:
    return RunConfig()


@pytest.fixture(
    params=[
        "stat",
        pytest.param(
            "chmod",
            marks=pytest.mark.skipif(os.geteuid() == 0, reason="root ignores directory modes"),
        ),
    ]
)
def deny(request, monkeypatch):
    """deny(*paths): from then on, stat of each path fails with EACCES,
    through a patched os.stat, or through a chmod 000 of its directory,
    undone at teardown (skipped as root, which ignores modes)."""
    denied, locked = set(), []
    real_stat = os.stat

    def stat(path, *args, **kwargs):
        if isinstance(path, (str, os.PathLike)) and os.fspath(path) in denied:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
        return real_stat(path, *args, **kwargs)

    def deny_paths(*paths):
        for path in paths:
            if request.param == "stat":
                denied.add(str(path))
                monkeypatch.setattr(os, "stat", stat)
            else:
                locked.append(path.parent)
                path.parent.chmod(0)

    yield deny_paths
    for directory in locked:
        directory.chmod(0o755)
