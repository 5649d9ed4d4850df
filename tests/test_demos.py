"""Every demo script runs to completion as a script, and the README's
quick start evaluates to what it says."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# keep the census demo to a small genus; the others take no arguments
ARGS = {"census.py": ["--genus-max", "8"]}
# `expr  # literal` or `expr  # literal: note` states the value of expr
STATED_VALUE = re.compile(r"^(?P<expr>\S.*?)\s+# (?P<literal>.+?)(?:: .*)?$")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo), *ARGS.get(demo.name, [])],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start():
    text = (ROOT / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        match = STATED_VALUE.match(line)
        if match:
            want = ast.literal_eval(match["literal"])
            assert eval(match["expr"], namespace) == want, line
            checked += 1
    assert checked == 5
