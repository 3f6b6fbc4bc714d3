from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

# Every property draws the same examples on every run, so a failure, or a
# mutant's kill set, repeats.  derandomize also turns off the example database.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def history_fixture(data_dir: Path) -> Path:
    return data_dir / "history_sample.csv"
