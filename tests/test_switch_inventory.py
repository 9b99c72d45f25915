"""Inventory of the configuration surface that selects a code path.

Every ``REPRO_*`` environment switch doubles the configurations the
bit-identity grids have to cover, so the set is pinned: the variables
named anywhere under ``src/`` are exactly the ones the README's
"Environment switches" table documents, and the engine factory takes no
event-store argument.
"""

import pathlib
import re

import pytest

from repro.sim import PySimulator, Simulator

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SWITCHES = {
    "REPRO_ENGINE",
    "REPRO_PURE_PYTHON",
    "REPRO_FLUID_BACKEND",
    "REPRO_FLUID_EPOCH",
}


def test_source_and_readme_name_exactly_the_four_switches():
    in_source = set()
    for path in (REPO_ROOT / "src").rglob("*"):
        if path.suffix in (".py", ".c"):
            in_source |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert in_source == SWITCHES

    readme = (REPO_ROOT / "README.md").read_text()
    table = readme.split("## Environment switches", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", table, re.M))
    assert documented == SWITCHES


@pytest.mark.parametrize("factory", [Simulator, PySimulator])
def test_engine_constructor_takes_no_event_store(factory):
    assert factory(start_time=2.0).now == 2.0
    with pytest.raises(TypeError):
        factory(queue="heap")
