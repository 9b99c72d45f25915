"""Every name a package exports resolves.

A stale ``__all__`` entry (say, a re-export of a deleted builder) only
fails at ``from package import *``, which nothing else runs.  The cases
are ``repro`` and every one of its subpackages, found on disk, so a new
package is covered the day it appears.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


@pytest.mark.parametrize("module", PACKAGES)
def test_every_exported_name_is_an_attribute(module):
    package = importlib.import_module(module)
    exported = getattr(package, "__all__", ())
    missing = [name for name in exported if not hasattr(package, name)]
    assert missing == []
    assert len(set(exported)) == len(exported)
