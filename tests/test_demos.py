"""Smoke test: every demo script runs to completion against the source tree."""

from pathlib import Path

import pytest

from helpers import python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo):
    result = python(str(demo), timeout=300)
    assert result.returncode == 0, result.stderr
