from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI selects this profile (`--hypothesis-profile=ci`): every property test draws
# the same examples on every run, so a failure there reproduces locally with
# the same flag.
settings.register_profile("ci", derandomize=True, max_examples=100, database=None)

from plopen import validate_complex, build_plmap
from plopen.generators import GenSpec, generate
from plopen.linalg import det_sign, inverse, null_space


def _forbidder(monkeypatch, function, message):
    """A call that makes `function` raise in every plopen module that binds
    it, under any name."""

    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    def install():
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "plopen":
                for attr, value in list(vars(module).items()):
                    if value is function:
                        monkeypatch.setattr(module, attr, forbidden)

    return install


@pytest.fixture
def forbid_inverse(monkeypatch):
    """A call that makes `linalg.inverse` raise in every plopen module that binds it."""
    return _forbidder(monkeypatch, inverse, "rational inverse called")


@pytest.fixture
def forbid_det_sign(monkeypatch):
    """A call that makes `linalg.det_sign` raise in every plopen module that binds it."""
    return _forbidder(monkeypatch, det_sign, "determinant sign called")


@pytest.fixture
def forbid_null_space(monkeypatch):
    """A call that makes `linalg.null_space` raise in every plopen module that binds it."""
    return _forbidder(monkeypatch, null_space, "rational null space called")


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
