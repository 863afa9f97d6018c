"""The benchmark's probes still find every name they patch.

perfbench/probes.py replaces module-level names in provwrap from outside.
A renamed or no longer imported name would crash the traced benchmark run;
here it fails a unit test instead.
"""

import importlib
import sys
from pathlib import Path

from provwrap import cli

from conftest import write_sample_project

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_probes_install_trace_a_run_and_uninstall(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    probes = importlib.import_module("probes")
    workdir = tmp_path / "work"
    workdir.mkdir()
    write_sample_project(workdir)
    monkeypatch.chdir(workdir)
    command = ["--backend", "diff", "--", sys.executable, "examples/main.py"]
    # A warm run, as the benchmark makes them: the three unchanged files'
    # digests come from the digest index, so their copies are hashed;
    # example.png is made again and its digest is this run's, so it is not.
    assert cli.run(command) == 0
    (workdir / "example.png").unlink()

    tracer = probes.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        status = tracer.call("run", cli.run, command)
    finally:
        tracer.uninstall()

    assert status == 0
    # every probed layer ran: a name the pipeline stopped calling would
    # leave its metric silently at 0
    assert {span[0] for span in tracer.spans} == {
        "allocate", "build", "capture", "classify", "control_parse", "diff",
        "exclusion@classify", "exclusion@monitor", "prov_json", "rocrate", "run",
        "sha256@bundle", "sha256@monitor", "snapshot", "unify", "validate",
        "write_bundle",
    }
    assert tracer.metrics()["bundle.sha256_calls"] == 3
    assert tracer.metrics()["bundle.files_copied"] == 4
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
