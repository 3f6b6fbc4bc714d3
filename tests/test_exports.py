"""The package's export list names what ``llmchem`` binds, each name once."""

from __future__ import annotations

import inspect

import llmchem


def test_every_exported_name_resolves():
    missing = [name for name in llmchem.__all__ if not hasattr(llmchem, name)]
    assert missing == []


def test_no_exported_name_is_listed_twice():
    assert len(set(llmchem.__all__)) == len(llmchem.__all__)


def test_every_public_function_and_class_the_package_binds_is_exported():
    # Submodules are bound too, by the imports, and stay out of the list.
    bound = {
        name for name, value in vars(llmchem).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert bound - set(llmchem.__all__) == set()
