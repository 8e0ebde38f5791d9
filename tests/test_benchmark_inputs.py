"""The benchmark's workloads build their inputs from the package and from
the oracles in ``oracles.py``, which check every generated file; a break in
either then fails here, and not first in a benchmark run."""

import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_workload_builds_its_inputs(name):
    # the workload's calls name their files relative to the checkout root
    with tempfile.TemporaryDirectory(prefix=".workload-build-", dir=ROOT) as work:
        workload = workloads.build(name, 1731, Path(work))
        assert workload.name == name
        assert workload.calls and workload.items > 0
