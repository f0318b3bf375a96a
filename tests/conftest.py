import os
import sys
from pathlib import Path

import pytest

# allow running the suite from a source checkout without installing
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs whatever the host has; the list of forks made."""
    if not hasattr(os, "fork"):
        pytest.skip("the platform cannot fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    made = []
    fork = os.fork

    def counting():
        made.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return made
