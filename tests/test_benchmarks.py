"""Smoke test of the benchmark scripts: each one's child mode (`--one`) on
its smallest input, against this source tree, in a fresh interpreter, so
an API change that breaks a script fails here and not in a later
before/after run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMALLEST = {
    "rank_tables.py": ("64", "10", "2"),
    "prefix_dp.py": ("apex", "P6"),
    "minor_search.py": ("minor", "W5:U24"),
    "cli_ops.py": ("reduce-verify", "1", "0"),
    "fields.py": ("4",),
}
# groups of a script beyond the one its smallest input runs
GROUPS = {"minor_search.py iso-hosts": ("iso-hosts", "4:1:F7"), "prefix_dp.py graph": ("graph", "16"),
          "prefix_dp.py reduce": ("reduce", "P6"), "minor_search.py replay": ("replay", "W5:MK4"),
          "minor_search.py tw1": ("tw1", "1:2:1"), "cli_ops.py verify": ("verify", "tw1-codes", "4"),
          "minor_search.py excluded": ("excluded", "F7"), "minor_search.py host12": ("host12", "umbrella-2-2-2-1"),
          "minor_search.py iso": ("iso", "K25:MK5*")}


def test_every_script_has_a_smoke_input():
    scripts = {p.name for p in (ROOT / "benchmarks").glob("*.py")} - {"harness.py"}
    assert scripts == set(SMALLEST)


@pytest.mark.parametrize("script", sorted(SMALLEST))
def test_child_mode_runs_on_the_smallest_input(script):
    _run_child(script, SMALLEST[script])


@pytest.mark.parametrize("case", sorted(GROUPS))
def test_child_mode_runs_on_a_further_group(case):
    _run_child(case.split()[0], GROUPS[case])


def _run_child(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, str(ROOT / "benchmarks" / script), "--one", *args]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert "skipped" not in result
    assert len(result["runs"]) == 3 and result["best_s"] == min(result["runs"])
    assert result["tracemalloc_mb"] > 0 and "answer" in result


def test_a_skipped_tree_does_not_read_as_a_disagreement():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from harness import answers_agree
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    ran = {"best_s": 0.1, "answer": [3, 4]}
    skipped = {"skipped": "first run > 120 s"}
    assert answers_agree([skipped, ran])
    assert answers_agree([ran, dict(ran), skipped])
    assert answers_agree([skipped, skipped])
    assert not answers_agree([ran, {"best_s": 0.2, "answer": [3, 5]}, skipped])
