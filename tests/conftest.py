import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _script(name: str):
    path = REPO_ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def oracle():
    """The standalone extent table from scripts/, loaded as a module."""
    return _script("extents_oracle")


@pytest.fixture(scope="session")
def compiler():
    """The generator of ``arrowtips._tips`` from scripts/, loaded as a module."""
    return _script("compile_tips")
