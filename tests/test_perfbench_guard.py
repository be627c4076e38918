"""The benchmark harness under perfbench/ keeps working against the library.

perfbench/spans.py wraps toricfan's functions by name, so deleting or
renaming one of them breaks the tracer without failing any library test.
These tests only read perfbench/: they import its span table and run its
self-test and one short traced workload.
"""

import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def run_script(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    assert os.path.dirname(os.path.abspath(spans.__file__)) == PERFBENCH
    for module_name, names in spans.LAYERS.items():
        module = importlib.import_module(f"toricfan.{module_name}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            holder = getattr(module, owner) if owner else module
            assert callable(getattr(holder, attr, None)), f"{module_name}.{name}"
            if owner:
                assert attr in vars(holder), f"{module_name}.{name} is inherited"


def test_selftest_passes():
    done = run_script(os.path.join(PERFBENCH, "selftest.py"))
    assert done.returncode == 0, done.stdout + done.stderr


def test_traced_big_fan_run_is_correct():
    done = run_script(os.path.join(PERFBENCH, "run.py"), "--workload", "big-fan",
                      "--seed", "0", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
