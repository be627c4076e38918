"""The atlas rung: time `toricfan atlas` on one large fan from a source tree.

    python3 tools/atlas_rung.py TREE K [--format text|machine]
                                       [--command atlas|quotient|reconstruct]

Builds cp3 chain K, cpn(3) after K seeded star subdivisions
(perfbench/exact.subdivision_chain with random.Random(0), 2K + 4 maximal
cones), writes it to a scratch file, and runs `toricfan atlas` (or
`toricfan quotient`, with --command quotient) on it from TREE/src in a
child process, as a user would run the CLI.  With --command reconstruct
the scratch file holds the chain's weight data instead (perfbench's
exact dual bases, written before the clock starts), and the child runs
`toricfan reconstruct` on it; reconstruct has no --format, so only text
is accepted there.  The child's
stdout is read through a pipe and hashed as it arrives, so the output
never sits in memory.  Prints one line: the wall seconds from the child's
start to its exit, the output's bytes and MD5, the child's peak resident
set (ru_maxrss), and its exit code.  Two trees agree on the atlas, or on
the rebuilt fan, when their bytes and MD5 agree.  (Two trees may differ
in a `quotient` output on purpose, since it prints one kernel basis of
several.)

Standard library only; the fan comes from the perfbench/ next to this
script, so every tree gets the same input, and nothing under perfbench/
is written.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import exact  # noqa: E402 - perfbench's fan builder
import workloads  # noqa: E402 - perfbench's fan document writer


def chain_document(k: int, command: str = "atlas") -> str:
    """cp3 chain k as the command's input: its weight data for reconstruct,
    else its fan."""
    fan = exact.subdivision_chain(exact.cpn(3), k, random.Random(0))
    return (workloads.weight_document if command == "reconstruct" else workloads.fan_document)(fan)


def run(tree: str, k: int, fmt: str, command: str = "atlas") -> dict:
    """Run the command (atlas, quotient or reconstruct) on cp3 chain k from
    TREE/src in a child process."""
    src = os.path.join(os.path.abspath(tree), "src")
    scratch = tempfile.mkdtemp(prefix="atlas-rung-")
    try:
        path = os.path.join(scratch, f"cp3-chain-{k}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(chain_document(k, command))
        argv = [sys.executable, "-m", "toricfan", command, path]
        if command != "reconstruct":
            argv += ["--format", fmt]
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        digest, size = hashlib.md5(), 0
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=scratch)
        while chunk := child.stdout.read(1 << 16):
            digest.update(chunk)
            size += len(chunk)
        child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"k": k, "command": command, "format": fmt, "seconds": seconds, "bytes": size,
            "md5": digest.hexdigest(), "maxrss_mb": usage.ru_maxrss / 1024,
            "exit": child.returncode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", help="a toricfan source tree (a directory holding src/toricfan)")
    parser.add_argument("k", type=int, help="star subdivisions of cpn(3)")
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    parser.add_argument("--command", choices=("atlas", "quotient", "reconstruct"),
                        default="atlas")
    args = parser.parse_args(argv)
    if args.command == "reconstruct" and args.format != "text":
        parser.error("reconstruct writes a fan document: only --format text")
    if not os.path.isfile(os.path.join(args.tree, "src", "toricfan", "__init__.py")):
        parser.error(f"no toricfan sources under {args.tree}/src")
    if args.k < 0:
        parser.error("K must be at least 0")
    r = run(args.tree, args.k, args.format, args.command)
    print(f"cp3 chain {r['k']} {r['command']} --format {r['format']}: {r['seconds']:.3f} s, "
          f"{r['bytes']} bytes, md5 {r['md5']}, maxrss {r['maxrss_mb']:.1f} MB, exit {r['exit']}")
    return 0 if r["exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
