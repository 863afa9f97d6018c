"""Shared builders for provenance-model test inputs."""

import textwrap
from datetime import datetime, timezone
from pathlib import Path

import pytest

from provwrap import ArtifactRecord, Category, LoggedBy, RunConfig, RunMetadata


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


_LAST_STEP = textwrap.dedent(
    """
    import os as _os, tempfile as _tempfile, time as _time

    _fd, _probe = _tempfile.mkstemp(prefix="prov_tick-", dir=".")
    _written, _deadline = _os.fstat(_fd).st_ctime_ns, _time.monotonic() + 5
    while _os.fstat(_fd).st_ctime_ns <= _written:
        if _time.monotonic() > _deadline:
            raise SystemExit("the filesystem clock never moved")
        _os.utime(_fd)
    _os.close(_fd)
    _os.unlink(_probe)
    """
)


def ends_past_its_ctime_tick(script: str) -> str:
    """Return a child script that, as its last step, waits out the ctime tick
    of everything it wrote.

    The after-snapshot's stamp is made just after the child exits. On a
    filesystem whose ctimes are coarse, a file the child wrote last can share
    the stamp's tick, and its fresh digest then vouches for nothing: the
    bundle hashes that copy. This last step makes a probe file in the working
    directory (named prov_tick-…, so the prov_* exclusion hides it, and
    removed again), and returns once the filesystem's clock has moved past
    the probe's creation, so a count of hashes a test pins holds on any
    timestamp granularity.
    """
    return script + _LAST_STEP


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
