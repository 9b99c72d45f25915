"""Inventory of the configuration surface that selects a code path.

Every ``REPRO_*`` environment switch doubles the configurations the
bit-identity grids have to cover, so the set is pinned: the variables
named anywhere under ``src/`` are exactly the ones the README's
"Environment switches" table documents, and the engine factory takes no
event-store argument.

The same goes for what the documents *point at*: every repository path
the README, the build files, CI and the verify notes name must exist, so
a deleted module, bench or report cannot leave a dangling reference.
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
}


def test_source_and_readme_name_exactly_the_pinned_switches():
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


# Documents whose references are inventoried (benchmarks/e2e/README.md
# is the benchmark of record's own and is outside this list).
REFERRERS = (
    "README.md",
    "setup.py",
    "benchmarks/conftest.py",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
)
# A path under one of the tracked trees (globs allowed), or a root-level
# document / report / build file.
REFERENCE = re.compile(
    r"(?<![\w/.\-])"
    r"((?:src|tests|tools|examples|benchmarks)/[\w./*\-]+"
    r"|[A-Z][\w*\-]*\.(?:md|json)|pyproject\.toml)"
)
# Named on purpose although absent from a fresh checkout: the build
# output of ``setup.py build_ext --inplace``.
BUILD_OUTPUTS = ("src/repro/sim/_engine_c*.so",)


def named_paths(text):
    for match in REFERENCE.finditer(text):
        # ``*.so`` etc. keep their glob; sentence punctuation goes.
        yield match.group(1).rstrip(".-")


@pytest.mark.parametrize("referrer", REFERRERS)
def test_every_path_a_document_names_exists(referrer):
    source = REPO_ROOT / referrer
    if not source.exists():  # .claude/ is absent from exported trees
        pytest.skip(f"{referrer} not in this checkout")
    missing = sorted(
        {
            path
            for path in named_paths(source.read_text())
            if path not in BUILD_OUTPUTS
            and not any(REPO_ROOT.glob(path))
        }
    )
    assert not missing, f"{referrer} names paths that do not exist: {missing}"
