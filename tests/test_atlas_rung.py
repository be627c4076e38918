"""tools/atlas_rung.py times `toricfan atlas` on cp3 chain K from a tree.

Smoke test at K = 10: the tool's output bytes and MD5 are those of the
atlas run in-process on the same chain, in both formats.
"""

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys

import pytest

from corpus import subdivision_iterates
from toricfan.cli import main
from toricfan.formats import dump_fan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "atlas_rung.py")
LINE = re.compile(r"cp3 chain 10 atlas --format (\w+): ([0-9.]+) s, (\d+) bytes, "
                  r"md5 ([0-9a-f]{32}), maxrss ([0-9.]+) MB, exit 0")


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_chain_10_matches_the_in_process_atlas(fmt, tmp_path):
    done = subprocess.run([sys.executable, TOOL, ROOT, "10", "--format", fmt], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    match = LINE.fullmatch(done.stdout.strip())
    assert match, done.stdout
    assert match.group(1) == fmt and float(match.group(5)) > 0

    path = tmp_path / "chain.fan"
    path.write_text(dump_fan(subdivision_iterates(rounds=10, bases=("cp3",))[-1]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["atlas", str(path), "--format", fmt]) == 0
    data = out.getvalue().encode()
    assert (int(match.group(3)), match.group(4)) == (len(data), hashlib.md5(data).hexdigest())
