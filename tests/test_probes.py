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

    tracer = probes.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        status = tracer.call(
            "run", cli.run, ["--backend", "diff", "--", sys.executable, "examples/main.py"]
        )
    finally:
        tracer.uninstall()

    assert status == 0
    assert sum(1 for span in tracer.spans if span[0] == "sha256@bundle") > 0
    assert tracer.metrics()["bundle.sha256_calls"] == 4
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
