"""Output-identity check: do two toricfan source trees give the same outputs?

    python3 tools/same_outputs.py --workload big-fan --seed 0 TREE_A TREE_B

Runs every operation of one perfbench workload and seed once against the
`src/toricfan` of each tree, each tree in its own child process, and
compares the outputs operation by operation: exit code, stdout, stderr,
every file the operation writes, the repr of a library call's return
value (a flow.LimitReport) or of an exception that escaped, and the
check's status.  When some differ, prints one line per differing
operation (the fields that differ), the values of the first difference
of each operation kind, the count of differing operations per kind, and
the check-status transitions such as `fail→ok 456`; then exits with
code 1.  Otherwise prints one summary line and exits with code 0.

The operations come from the perfbench/ next to this script, so both
trees get the same inputs; each child runs in a scratch directory of its
own under the same relative file names, so that paths in the outputs
agree.  Standard library only; nothing under perfbench/ is written.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402 - perfbench's operations and checks

WORKLOADS = ("cli-corpus", "big-fan", "flow-limits")
FIELDS = ("code", "stdout", "stderr", "files", "value", "error", "status")


def import_tree(tree):
    """toricfan from TREE/src, with the submodules the workloads use."""
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    tf = importlib.import_module("toricfan")
    for sub in ("cli", "fan", "flow", "formats"):
        importlib.import_module(f"toricfan.{sub}")
    if not os.path.abspath(tf.__file__).startswith(src + os.sep):
        raise SystemExit(f"toricfan was imported from {tf.__file__}, not from {src}")
    return tf


def run_op(tf, op):
    """The outputs of one operation, as a dict of FIELDS."""
    for path in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    raw = workloads.Raw()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv is not None:
                try:
                    raw.code = tf.cli.main(op.argv)
                except SystemExit as e:  # argparse usage errors
                    raw.code = e.code
            else:
                raw.value = op.call()
    except Exception as e:
        raw.error = e
    raw.stdout, raw.stderr = out.getvalue(), err.getvalue()
    files = {}
    for path in op.outputs:
        try:
            with open(path, encoding="utf-8") as handle:
                files[path] = handle.read()
        except FileNotFoundError:
            files[path] = None
    try:
        status = op.check(raw)[0]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        status = f"unreadable output: {type(e).__name__}"
    return {"code": raw.code, "stdout": raw.stdout, "stderr": raw.stderr, "files": files,
            "value": None if raw.value is None else repr(raw.value),
            "error": None if raw.error is None else repr(raw.error), "status": status}


def child(tree, workload, seed, result_path):
    """Run every operation of the workload against TREE; one JSON record
    per operation goes to result_path."""
    tf = import_tree(tree)
    build = {
        "cli-corpus": lambda files: workloads.cli_corpus(files, seed),
        "big-fan": lambda files: workloads.big_fan(files, seed),
        "flow-limits": lambda files: workloads.flow_limits(files, seed, tf),
    }[workload]
    work = tempfile.mkdtemp(prefix="same-outputs-")
    try:
        os.chdir(work)
        os.mkdir("inputs")
        ops, _ = build(workloads.Files("inputs"))
        with open(result_path, "w", encoding="utf-8") as handle:
            for op in ops:
                rec = run_op(tf, op)
                rec["op"] = op.argv if op.argv is not None else op.kind
                rec["kind"] = op.kind
                handle.write(json.dumps(rec) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def outputs_of(tree, workload, seed, path):
    """The records of every operation run against TREE, from a child
    process that writes them to path."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", tree,
         "--workload", workload, "--seed", str(seed), "--result", path],
        capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"the run against {tree} exited with {done.returncode}")
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def differences(a, b):
    """(operation index, the fields that differ) of every operation whose
    outputs differ, in order."""
    out = []
    for k, (x, y) in enumerate(zip(a, b)):
        fields = [name for name in FIELDS if x[name] != y[name]]
        if fields:
            out.append((k, fields))
    return out


def tally(items) -> str:
    counts = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return ", ".join(f"{key} {count}" for key, count in sorted(counts.items()))


def clip(value, limit=400):
    text = value if isinstance(value, str) else json.dumps(value)
    return text if len(text) <= limit else text[:limit] + f"... ({len(text)} chars)"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE",
                        help="two toricfan source trees (directories holding src/toricfan)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--result", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        child(args.child, args.workload, args.seed, args.result)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees")
    for tree in args.trees:
        if not os.path.isfile(os.path.join(tree, "src", "toricfan", "__init__.py")):
            parser.error(f"no toricfan sources under {tree}/src")
    scratch = tempfile.mkdtemp(prefix="same-outputs-")
    try:
        a, b = (outputs_of(t, args.workload, args.seed, os.path.join(scratch, f"{k}.jsonl"))
                for k, t in enumerate(args.trees))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    head = f"{args.workload} seed {args.seed}:"
    diffs = differences(a, b)
    if len(a) != len(b):
        print(f"{head} operation count differs: {len(a)} against {len(b)}")
    for k, fields in diffs:
        print(f"{head} operation {k} {clip(a[k]['op'], 200)} differs in {', '.join(fields)}")
    if diffs:
        shown = set()
        for k, fields in diffs:
            if a[k]["kind"] not in shown:
                shown.add(a[k]["kind"])
                print(f"first {a[k]['kind']} difference, operation {k}, in {fields[0]}:")
                print(f"  {args.trees[0]}: {clip(a[k][fields[0]])}")
                print(f"  {args.trees[1]}: {clip(b[k][fields[0]])}")
        print(f"{head} differing operations by kind: {tally(a[k]['kind'] for k, _ in diffs)}"
              f" (of {tally(rec['kind'] for rec in a)})")
        moved = [f"{a[k]['status']}→{b[k]['status']}" for k, fields in diffs
                 if "status" in fields]
        print(f"{head} status transitions: {tally(moved) or 'none'}")
    if diffs or len(a) != len(b):
        return 1
    statuses = {}
    for rec in a:
        statuses[rec["status"]] = statuses.get(rec["status"], 0) + 1
    print(f"{args.workload} seed {args.seed}: {len(a)} operations identical; "
          f"statuses {json.dumps(statuses, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
