import sys
from pathlib import Path

import pytest
from hypothesis import find, strategies as st

# Allow running pytest from a fresh checkout without installing the package.
sys.path.insert(0, str(Path(__file__).parent / "src"))


@pytest.fixture(scope="session", autouse=True)
def hypothesis_unicode_tables():
    """Hypothesis builds its unicode tables on the first text it draws and
    caches them under ``.hypothesis/``.  On a fresh checkout that build takes
    seconds, and inside a property test it counts as slow input generation
    and fails the health check; built here, once, before any test."""
    find(st.text(min_size=1), bool)
