"""tools/same_outputs.py compares the outputs of two source trees.

Smoke tests: one tree against itself gives no difference, and a copy of
the sources with one changed output is caught.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "same_outputs.py")


def compare(a, b, workload="big-fan", seed=0):
    return subprocess.run([sys.executable, TOOL, "--workload", workload, "--seed", str(seed),
                           a, b], cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_a_tree_matches_itself():
    done = compare(ROOT, ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "big-fan seed 0: 25 operations identical" in done.stdout


def test_a_changed_output_is_reported(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src", "toricfan"), tmp_path / "src" / "toricfan",
                    ignore=shutil.ignore_patterns("__pycache__"))
    toric = tmp_path / "src" / "toricfan" / "toric.py"
    text = toric.read_text()
    assert text.count('return "p" + ') == 1
    toric.write_text(text.replace('return "p" + ', 'return "q" + '))
    done = compare(ROOT, str(tmp_path))
    assert done.returncode == 1, done.stdout + done.stderr
    first = done.stdout.splitlines()[0]
    assert "weights" in first and first.endswith("differs in files")
