"""Each entry point loads only the modules its work needs: the package
root resolves its public names on first access, the CLI loads verify and
construct in their handlers, and the harness loads multiprocessing only
to start a worker pool.  Each footprint is read in a fresh interpreter
from `-X importtime`, which names every module as it is first loaded."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numsgps

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("numsgps.core", "numsgps.gorenstein", "numsgps.rf", "numsgps.construct",
          "numsgps.verify", "multiprocessing")


def _loaded(*args: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "args, absent",
    [
        (["-c", "import numsgps"], LAYERS),
        (["-c", "import numsgps.cli"], ("numsgps.verify", "numsgps.construct", "multiprocessing")),
        (["-c", "import numsgps.verify"], ("numsgps.construct", "multiprocessing")),
        (["-m", "numsgps", "info", "3,5"], ("numsgps.verify", "numsgps.construct")),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_entry_point_loads_only_what_it_uses(args, absent):
    loaded = _loaded(*args)
    assert "numsgps" in loaded
    assert sorted(loaded & set(absent)) == []


def test_a_handler_loads_its_layer_when_it_runs():
    loaded = _loaded("-m", "numsgps", "construct", "backelin", "--T", "2")
    assert {"numsgps.construct", "numsgps.cli"} <= loaded
    assert "numsgps.verify" not in loaded


@pytest.mark.parametrize("name", numsgps.__all__)
def test_every_public_name_is_its_home_module_object(name):
    value = getattr(numsgps, name)
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert name in dir(numsgps)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        numsgps.no_such_name
    assert not hasattr(numsgps, "__no_such_dunder__")
    assert len(set(numsgps.__all__)) == len(numsgps.__all__) == 44
