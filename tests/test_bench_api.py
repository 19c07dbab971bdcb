"""The benchmark's calls into the package still work: one episode of each
workload of ``bench/workloads.py``, with the mutated audit, runs with no
failed operation.

An API change the benchmark depends on (a renamed function, a dropped
parameter) fails here, in the tier-1 suite, rather than only when the
benchmark itself is run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

# loaded from its file, so that bench/ need not be on sys.path; dataclasses
# look the module up in sys.modules while it is executed
_spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_episode_runs_without_failures(name, tmp_path):
    episode_fn, shape = workloads.WORKLOADS[name]
    before = dict(sys.modules)
    ep = episode_fn(shape, 1, 0, mutate=True, out_dir=str(tmp_path))
    assert ep.failed == 0, ep.errors
    assert ep.attempted > 0
    # cli_setup_s imports the package afresh and must put back the modules
    # every other caller holds
    assert [n for n, m in before.items() if sys.modules.get(n) is not m] == []
    assert [n for n in sys.modules if n not in before
            and n.split(".")[0] == workloads.PACKAGE] == []
