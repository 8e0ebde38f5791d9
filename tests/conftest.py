import sys
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

FIXTURES = Path(__file__).parent.parent / "fixtures"


def pytest_configure(config):
    # hypothesis caches unicode tables and source constants on disk, from
    # test collection on; keep them in pytest's cache, not in the checkout
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES
