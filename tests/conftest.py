import os
import sys
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable
# pyproject's pythonpath reaches this process only; the CLI tests start
# ``python -m topocert`` in child processes, which read PYTHONPATH
SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

FIXTURES = Path(__file__).parent.parent / "fixtures"


def space_fixtures() -> list:
    """The distinct finite spaces of the fixture files, each once: a file
    with a cover may repeat another file's space."""
    from topocert.jsonio import load_input

    spaces = {}
    for path in sorted(FIXTURES.glob("*.json")):
        if '"points"' in path.read_text():
            space = load_input(str(path)).space
            spaces.setdefault((space.points, space.opens), space)
    return list(spaces.values())


def pytest_configure(config):
    # hypothesis caches unicode tables and source constants on disk, from
    # test collection on; keep them in pytest's cache, not in the checkout
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES
