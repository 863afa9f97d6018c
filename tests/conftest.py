"""Shared builders for provenance-model test inputs."""

import os
import textwrap
import threading
from datetime import datetime, timezone
from pathlib import Path

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
