"""Shared fixtures."""

import importlib
import pkgutil
from dataclasses import is_dataclass

import pytest

import mvlevy
from mvlevy.errors import _check_types


def _runs_type_check(cls):
    post = getattr(cls, "__post_init__", None)
    code = getattr(post, "__code__", None)
    return post is _check_types or (code is not None and "_check_types" in code.co_names)


@pytest.fixture(scope="session")
def config_dataclasses():
    """Every dataclass in the package whose __post_init__ runs
    errors._check_types: the classes that describe a config section."""
    found = set()
    for mod in pkgutil.iter_modules(mvlevy.__path__):
        module = importlib.import_module(f"mvlevy.{mod.name}")
        found |= {c for c in vars(module).values()
                  if isinstance(c, type) and is_dataclass(c) and _runs_type_check(c)}
    return found
