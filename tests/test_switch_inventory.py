"""Inventory of the configuration surface that selects a code path.

Every ``REPRO_*`` environment switch doubles the configurations the
bit-identity grids have to cover, so the set is pinned — to none: no
variable is named anywhere under ``src/``, the README's "Environment
switches" table lists none, and the engine takes no event-store
argument.

So is the fluid engine's option surface (``FluidOptions``'s fields) and
its import graph: the façade loads no backend and no control plane until
a run needs one, and the reference backend and the NumPy kernel never
load each other.

The same goes for what the documents *point at*: every repository path
the README, the build files, CI and the verify notes name must exist, so
a deleted module, bench or report cannot leave a dangling reference.
"""

import dataclasses
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.fluid.model import FluidOptions
from repro.sim import Simulator

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SWITCHES = set()


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


def test_engine_constructor_takes_no_event_store():
    assert Simulator(start_time=2.0).now == 2.0
    with pytest.raises(TypeError):
        Simulator(queue="heap")


def test_fluid_options_are_exactly_the_pinned_fields():
    assert {field.name for field in dataclasses.fields(FluidOptions)} == {
        "epoch_seconds", "backend", "record_flows", "fast_forward",
        "fuse_epochs",
    }


@pytest.mark.parametrize(
    "module,absent,without_numpy",
    [
        # What keeps ``setup_s`` flat: the façade alone loads no backend
        # and no control plane.
        (
            "repro.fluid.model",
            ("repro.fluid.reference", "repro.fluid.kernel",
             "repro.fluid.control"),
            False,
        ),
        # Oracle and production share no logic, and the oracle runs
        # where numpy is absent.
        ("repro.fluid.reference", ("repro.fluid.kernel",), True),
        ("repro.fluid.kernel", ("repro.fluid.reference",), False),
    ],
)
def test_fluid_modules_load_only_what_they_use(module, absent, without_numpy):
    if module == "repro.fluid.kernel":
        pytest.importorskip("numpy")
    program = (
        "import sys\n"
        + ("sys.modules['numpy'] = None  # 'import numpy' now raises\n"
           if without_numpy else "")
        + f"import {module}\n"
        + f"print([m for m in {absent!r} if m in sys.modules])\n"
    )
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([inherited] if inherited else [])
    ))
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, text=True,
        capture_output=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
            if not any(REPO_ROOT.glob(path))
        }
    )
    assert not missing, f"{referrer} names paths that do not exist: {missing}"
