"""The flow rung: time `flow.verify_limit` on one large fan from a source tree.

    python3 tools/flow_rung.py TREE K

Builds cp3 chain K, cpn(3) after K seeded star subdivisions
(perfbench/exact.subdivision_chain with random.Random(0), 2K + 4 maximal
cones), and 40 flows on it drawn with random.Random(0) as `flow-limits`
draws its integer ones: xi with entries in [-5, 5], not zero, a start
chart among the maximal cones, and start coordinates of modulus in
[0.2, 0.9] with a uniform phase.  A child process on TREE/src parses and
validates the fan (set-up, untimed) and then times each verify_limit.
It counts the chart switches of each tracked trajectory (its segments
less one) and the toric.transition calls made while tracking.  Prints
one line: the median and largest ms per verification, the switches, the
transitions per switch, how many of the 40 converged, and the MD5 of the
reports (each LimitReport's repr, or the class and message of the error
it raised).  Two trees agree on the flows when their MD5s agree.

Standard library only; the fan and the flows come from the perfbench/
next to this script, so every tree gets the same input, and nothing under
perfbench/ is written.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import exact  # noqa: E402 - perfbench's fan builder
import workloads  # noqa: E402 - perfbench's fan document writer and direction draws

FLOWS = 40

CHILD = r"""
import hashlib, json, statistics, sys, time
from toricfan import flow, formats, fan as fan_module

job = json.load(sys.stdin)
with open(job["fan"], encoding="utf-8") as handle:
    f, _ = formats.parse_fan(handle.read())
assert fan_module.validate(f).ok
counts = {"switches": 0, "transitions": 0}
tracking = [False]
transition, track = flow.transition, flow.track

def counted_transition(*args):
    counts["transitions"] += tracking[0]
    return transition(*args)

def counted_track(*args):
    tracking[0] = True
    try:
        segments = track(*args)
    finally:
        tracking[0] = False
    counts["switches"] += len(segments) - 1
    return segments

flow.transition, flow.track = counted_transition, counted_track
digest, times, converged = hashlib.md5(), [], 0
for xi, chart, coords in job["flows"]:
    start = flow.chart_point(chart, [complex(*z) for z in coords])
    t0 = time.perf_counter()
    try:
        report = flow.verify_limit(f, tuple(xi), start)
    except Exception as e:
        text = f"{type(e).__name__}: {e}"
    else:
        text = repr(report)
        converged += report.converged
    times.append((time.perf_counter() - t0) * 1000.0)
    digest.update(text.encode() + b"\n")
json.dump({"median_ms": statistics.median(times), "max_ms": max(times),
           "converged": converged, "md5": digest.hexdigest(), **counts}, sys.stdout)
"""


def flows(fan, count: int = FLOWS) -> list:
    """`count` seeded (xi, chart, coords) triples, coordinates as (re, im)."""
    rng = random.Random(0)
    n = len(fan[0][0])
    low, high = workloads.FLOW_LIMITS["start_modulus"]
    charts = workloads.full_cones(fan)
    out = []
    for _ in range(count):
        xi = workloads.random_integer_direction(n, workloads.FLOW_LIMITS["xi_range"], rng)
        chart = rng.choice(charts)
        coords = [cmath.rect(rng.uniform(low, high), rng.uniform(0.0, 2.0 * cmath.pi))
                  for _ in range(n)]
        out.append((xi, chart, [(z.real, z.imag) for z in coords]))
    return out


def run(tree: str, k: int) -> dict:
    """verify_limit on the flows of cp3 chain k, from TREE/src in a child process."""
    fan = exact.subdivision_chain(exact.cpn(3), k, random.Random(0))
    src = os.path.join(os.path.abspath(tree), "src")
    scratch = tempfile.mkdtemp(prefix="flow-rung-")
    try:
        path = os.path.join(scratch, f"cp3-chain-{k}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(workloads.fan_document(fan))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-c", CHILD], env=env, cwd=scratch,
                              input=json.dumps({"fan": path, "flows": flows(fan)}),
                              capture_output=True, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"child failed with exit {done.returncode}:\n{done.stderr}")
    return {"k": k, "cones": len(fan[1]), **json.loads(done.stdout)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", help="a toricfan source tree (a directory holding src/toricfan)")
    parser.add_argument("k", type=int, help="star subdivisions of cpn(3)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(args.tree, "src", "toricfan", "__init__.py")):
        parser.error(f"no toricfan sources under {args.tree}/src")
    if args.k < 0:
        parser.error("K must be at least 0")
    r = run(args.tree, args.k)
    per_switch = r["transitions"] / r["switches"] if r["switches"] else 0.0
    print(f"cp3 chain {r['k']} ({r['cones']} cones) verify_limit x{FLOWS}: "
          f"median {r['median_ms']:.2f} ms, max {r['max_ms']:.2f} ms, "
          f"{r['switches']} switches, {per_switch:.2f} transitions per switch, "
          f"converged {r['converged']}/{FLOWS}, md5 {r['md5']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
