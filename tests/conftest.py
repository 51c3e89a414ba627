import os
from pathlib import Path

import pytest

import gridfreq
from gridfreq.cli import load_scenario
from gridfreq.fixtures import fixture_path


@pytest.fixture(scope="session")
def two_gen_scenario():
    return load_scenario(fixture_path("two_gen.scn"))


@pytest.fixture(scope="session")
def ring9_scenario():
    return load_scenario(fixture_path("ring9.scn"))


@pytest.fixture(scope="session")
def child_env():
    """The environment for a child ``python -m gridfreq.cli``: this one with
    the tested package's source root first on PYTHONPATH, so the child
    imports the same package when it is not installed."""
    paths = [str(Path(gridfreq.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
