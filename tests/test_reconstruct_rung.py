"""tools/atlas_rung.py --command reconstruct times `toricfan reconstruct`
on the weight data of cp3 chain K from a tree.

Smoke test at K = 10: the tool's output bytes and MD5 are those of the
reconstruct run in-process on the same chain's weight data.
"""

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys

from corpus import subdivision_iterates
from toricfan.cli import main
from toricfan.formats import dump_weight_data
from toricfan.toric import weight_data_from_fan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "atlas_rung.py")
LINE = re.compile(r"cp3 chain 10 reconstruct --format text: ([0-9.]+) s, (\d+) bytes, "
                  r"md5 ([0-9a-f]{32}), maxrss ([0-9.]+) MB, exit 0")


def test_chain_10_matches_the_in_process_reconstruct(tmp_path):
    done = subprocess.run([sys.executable, TOOL, ROOT, "10", "--command", "reconstruct"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    match = LINE.fullmatch(done.stdout.strip())
    assert match, done.stdout

    path = tmp_path / "chain.weights"
    path.write_text(dump_weight_data(
        weight_data_from_fan(subdivision_iterates(rounds=10, bases=("cp3",))[-1])))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["reconstruct", str(path)]) == 0
    data = out.getvalue().encode()
    assert (int(match.group(2)), match.group(3)) == (len(data), hashlib.md5(data).hexdigest())


def test_machine_format_refused():
    done = subprocess.run([sys.executable, TOOL, ROOT, "10", "--command", "reconstruct",
                           "--format", "machine"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and "only --format text" in done.stderr
