"""The benchmark's rounds pass their own output checks on the current package.

One untraced and one traced round of each workload in BENCHMARK.json, run by
``bench/run.py``'s ``run_round`` as the benchmark runs them, so a change that
breaks the tracer's wrapping or an output check fails here and not only in
``bench/smoke.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ntxbound import cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.fixture(scope="module")
def bench_run():
    """``bench/run.py`` loaded by path, with the sibling modules it imports by name.

    Its dataclasses look their module up in ``sys.modules``, so it is registered there while loaded.
    """
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
    yield run
    for name in ("bench_run", "checks", "tracer"):
        sys.modules.pop(name, None)


def test_every_declared_workload_has_a_round(bench_run):
    assert sorted(bench_run.WORKLOADS) == sorted(WORKLOADS)


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_round_passes_its_checks(bench_run, workload, traced, tmp_path, capsys):
    result = bench_run.run_round(cli, workload, tmp_path, 0, 7, traced)
    assert result.problems == []
    assert result.failed == 0 and result.ops >= 1
    assert capsys.readouterr().err == ""
