"""Shared fixtures: a small fabricated corpus most suites reuse."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from memsift import fabricate

from plans import small_plan


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Fabricated corpus shared by read-only tests."""
    out = tmp_path_factory.mktemp("corpus")
    plan = small_plan()
    result = fabricate(plan, out)
    return plan, result
