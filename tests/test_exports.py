"""Every name a package exports resolves.

A stale ``__all__`` entry (say, a re-export of a deleted builder) only
fails at ``from package import *``, which nothing else runs.
"""

import importlib

import pytest


@pytest.mark.parametrize("module", ["repro", "repro.net", "repro.scenario"])
def test_every_exported_name_is_an_attribute(module):
    package = importlib.import_module(module)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)
