import json
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def reference_tables():
    """Checked-in reference copy of the 162 progression rows and both map
    schemata, the golden fixture for regeneration tests."""
    with open(DATA_DIR / "reference_tables.json") as fh:
        return json.load(fh)
