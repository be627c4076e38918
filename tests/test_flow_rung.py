"""tools/flow_rung.py times flow.verify_limit on cp3 chain K from a tree.

Smoke test at K = 10: the tool's switch count, converged count and MD5
are those of the same flows verified in-process.
"""

import hashlib
import os
import re
import subprocess
import sys

from toricfan import flow
from toricfan.fan import validate
from toricfan.formats import parse_fan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "flow_rung.py")
LINE = re.compile(r"cp3 chain 10 \(24 cones\) verify_limit x40: median ([0-9.]+) ms, "
                  r"max ([0-9.]+) ms, (\d+) switches, ([0-9.]+) transitions per switch, "
                  r"converged (\d+)/40, md5 ([0-9a-f]{32})")


def test_chain_10_matches_in_process_verification(monkeypatch):
    done = subprocess.run([sys.executable, TOOL, ROOT, "10"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    match = LINE.fullmatch(done.stdout.strip())
    assert match, done.stdout
    median, largest, switches, per_switch, converged, md5 = match.groups()
    assert 0 < float(median) <= float(largest) and float(per_switch) >= 1.0

    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    import flow_rung

    chain = flow_rung.exact.subdivision_chain(flow_rung.exact.cpn(3), 10,
                                              flow_rung.random.Random(0))
    f, _ = parse_fan(flow_rung.workloads.fan_document(chain))
    assert validate(f).ok
    digest, ok, segments = hashlib.md5(), 0, 0
    for xi, chart, coords in flow_rung.flows(chain):
        start = flow.chart_point(chart, [complex(*z) for z in coords])
        report = flow.verify_limit(f, xi, start)
        digest.update(repr(report).encode() + b"\n")
        ok += report.converged
        segments += len(flow.track(f, start, flow.direction(xi), flow.R_AT_INFINITY)) - 1
    assert (int(switches), int(converged), md5) == (segments, ok, digest.hexdigest())
