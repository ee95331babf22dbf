"""Smoke test of the benchmark's traced tour (perfbench/tour.py).

The tour reads per-layer timings from spans that it records around the
package's cross-module calls. A span that goes missing, or a layer whose
number cannot be formed, fails a traced benchmark run; this runs one short
traced pass in process so that such a failure shows in the test suite.
"""

import importlib
import json
import math
import sys

from conftest import REPO_ROOT


def test_traced_tour_reports_every_per_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no file under perfbench/
    tour = importlib.import_module("tour")
    run = tour.traced_run(2401, 0.0)

    assert run["log"].failed == 0, run["report"]
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in run["metrics"]]
    assert not missing
    not_finite = {m["name"]: run["metrics"][m["name"]] for m in declared
                  if not math.isfinite(run["metrics"][m["name"]])}
    assert not not_finite
