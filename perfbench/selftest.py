"""Self-test of the benchmark's checks and tracer.

    python3 perfbench/selftest.py

Runs a few operations twice: once checked against their true expectation,
which must pass, and once against a deliberately wrong one, which must be
caught as WRONG.  Then checks that the tracer reaches call sites that
imported a function by name, and that uninstalling restores them.  Exits
with code 1 if any case is not as expected.
"""

from __future__ import annotations

import os
import random
import shutil
import sys

import run  # sets up sys.path for the benchmark modules and src/
import spans
import workloads
from workloads import OK, WRONG

import exact


def cases(files, tf):
    """(name, op with the true expectation, op with a wrong expectation)."""
    rng = random.Random(7)
    cp2 = exact.cpn(2)
    chain = exact.subdivision_chain(exact.cpn(3), 2, rng)
    other = exact.subdivision_chain(exact.cpn(3), 2, rng)
    overlap = exact.mutate_overlap(chain, rng)
    hole = exact.drop_cone(chain, rng)

    def one(fan, expect, command, xi_rng_seed=0):
        return workloads.fan_ops(files, fan, expect, random.Random(xi_rng_seed), 3, [command])[0]

    def swap_check(op, check):
        return workloads.Op(op.kind, check, op.argv, op.call, op.outputs)

    out = []
    right = one(chain, "complete", "validate")
    out.append(("validate: valid fan expected to break the intersection axiom", right,
                swap_check(right, workloads.check_validate(chain, "intersection"))))
    right = one(overlap, "intersection", "validate")
    out.append(("validate: overlapping mutation expected valid", right,
                swap_check(right, workloads.check_validate(overlap, "valid"))))
    right = one(hole, "incomplete", "complete --oracle both")
    out.append(("complete: fan with a missing cone expected complete", right,
                swap_check(right, workloads.check_complete(hole, "both", "complete"))))
    right = one(chain, "complete", "reconstruct")
    out.append(("reconstruct: round trip compared with another fan", right,
                swap_check(right, workloads.check_reconstruct(other, right.outputs[0]))))
    right = one(chain, "complete", "weights")
    out.append(("weights: compared with another fan's cones", right,
                swap_check(right, workloads.check_weights(other, right.outputs[0], "ok"))))
    right = one(chain, "complete", "quotient")
    out.append(("quotient: compared with another fan", right,
                swap_check(right, workloads.check_quotient(other, "ok"))))
    right = one(chain, "complete", "atlas")
    out.append(("atlas: compared with another fan", right,
                swap_check(right, workloads.check_atlas(other, "ok"))))
    right = one(cp2, "complete", "limit")
    xi = tuple(int(x) for x in right.argv[2].split("=")[1].split(","))
    flipped = tuple(-x for x in xi)
    out.append(("limit: stratum checked against the opposite direction", right,
                swap_check(right, workloads.check_limit(cp2, flipped, "complete", workloads.TOL))))
    right = workloads.malformed_ops(files, random.Random(0))[0]
    out.append(("malformed: unparseable fan expected to succeed", right,
                swap_check(right, lambda raw: workloads.expect_code(raw, 0) or (OK, ""))))
    parsed, _ = tf.formats.parse_fan(workloads.fan_document(cp2))
    start = tf.flow.chart_point(cp2[1][0], (0.5, 0.5j))

    def call(xi=(1, -1)):
        return tf.flow.verify_limit(parsed, xi, start)

    right = workloads.Op("verify_limit", workloads.check_verify(cp2, (1, -1), 1e-6), call=call)
    out.append(("verify_limit: stratum checked against the opposite direction", right,
                swap_check(right, workloads.check_verify(cp2, (-1, 1), 1e-6))))
    return out


def check_tracer(tf, files):
    """The tracer must wrap `transition` where flow imported it by name,
    record spans for it, and restore the original afterwards."""
    original = tf.flow.transition
    tracer = spans.Tracer()
    tracer.install()
    try:
        if tf.flow.transition is original or tf.toric.transition is original:
            return "transition not wrapped in every namespace"
        op = workloads.fan_ops(files, exact.cpn(2), "complete", random.Random(0), 3, ["atlas"])[0]
        run.run_op(tf, op, 0, tracer)
    finally:
        tracer.uninstall()
    if tf.flow.transition is not original:
        return "uninstall left a wrapper behind"
    by_name, _, _ = tracer.summary()
    if by_name["toric.transition"][0] == 0 or by_name["cli.main"][0] != 1:
        return "atlas op recorded no transition span"
    return None


def main():
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    bad = 0
    try:
        tf = run.fresh_import()
        files = workloads.Files(workdir)
        for name, right, wrong in cases(files, tf):
            _, raw = run.run_op(tf, right, 0)
            status, detail = run.checked(right, raw)
            _, raw = run.run_op(tf, wrong, 0)
            caught, why = run.checked(wrong, raw)
            ok = status == OK and caught == WRONG
            bad += not ok
            print(f"{'ok' if ok else 'FAILED':6} {name}: true expectation {status}, "
                  f"wrong one {caught} ({why or detail})")
        problem = check_tracer(tf, files)
        bad += problem is not None
        print(f"{'FAILED' if problem else 'ok':6} tracer: {problem or 'wraps imported names and restores them'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
