from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from plopen import validate_complex, build_plmap
from plopen.generators import GenSpec, generate
from plopen.linalg import inverse


@pytest.fixture
def forbid_inverse(monkeypatch):
    """A call that makes `linalg.inverse` raise in every plopen module that binds it."""

    def forbidden(*args, **kwargs):
        raise AssertionError("rational inverse called")

    def install():
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "plopen" and getattr(module, "inverse", None) is inverse:
                monkeypatch.setattr(module, "inverse", forbidden)

    return install


@pytest.fixture(scope="session")
def identity_square():
    complex_ = validate_complex(
        [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]], 2
    )
    return build_plmap(complex_, [[0, 0], [1, 0], [1, 1], [0, 1]])


@pytest.fixture(scope="session")
def fold1d():
    return generate(GenSpec("fold1d", 1)).plmap


@pytest.fixture(scope="session")
def interior_fold1d():
    return generate(GenSpec("interior_fold1d", 1))


@pytest.fixture(scope="session")
def doubling2d():
    return generate(GenSpec("doubling2d", 2))
