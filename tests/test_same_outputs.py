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


def test_every_differing_operation_is_reported(monkeypatch, capsys):
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        import same_outputs
    finally:
        sys.path.remove(os.path.join(ROOT, "tools"))

    def record(kind, status, stdout=""):
        return {"op": kind, "kind": kind, "code": None, "stdout": stdout, "stderr": "",
                "files": {}, "value": None, "error": None, "status": status}

    a = [record("quotient", "ok", "kernel (1,1)"), record("verify_limit", "fail"),
         record("validate", "ok"), record("verify_limit", "fail"), record("verify_limit", "ok")]
    b = [record("quotient", "ok", "kernel (1,2)"), record("verify_limit", "ok"),
         record("validate", "ok"), record("verify_limit", "ok"), record("verify_limit", "ok")]
    runs = iter([a, b])
    monkeypatch.setattr(same_outputs, "outputs_of", lambda *args: next(runs))
    assert same_outputs.main(["--workload", "flow-limits", ROOT, ROOT]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if " differs in " in line] == [
        'flow-limits seed 0: operation 0 quotient differs in stdout',
        'flow-limits seed 0: operation 1 verify_limit differs in status',
        'flow-limits seed 0: operation 3 verify_limit differs in status',
    ]
    assert lines[-2] == ("flow-limits seed 0: differing operations by kind: quotient 1, "
                         "verify_limit 2 (of quotient 1, validate 1, verify_limit 3)")
    assert lines[-1] == "flow-limits seed 0: status transitions: fail→ok 2"
