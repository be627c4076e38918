"""Seeded workloads: the operations each one runs and how each is checked.

An operation is either a CLI command run in-process through
`toricfan.cli.main(argv)` or one `toricfan.flow.verify_limit` call.  Each
carries a check that compares the program's output with an expectation
computed in `exact.py`, never by the code under test.

A check returns one of three statuses:

* OK    -- the output meets its expectation;
* FAIL  -- the operation did not succeed, in one of the two classes of
  known defect at the baseline (ROADMAP item 4): a numerical flow
  verification that does not converge, converges spuriously or raises,
  and a non-finite `--r` or non-positive `--tol` that is not rejected
  with exit code 2;
* WRONG -- any other mismatch: a wrong verdict, exit code, round trip,
  stratum or weight, or an exception escaping any other command.

Both FAIL and WRONG count as failed operations; WRONG also makes the run
incorrect.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import exact

OK, FAIL, WRONG = "ok", "fail", "wrong"
# the tolerance a flow limit is checked to: the default of `limit --tol`
# and of `verify_limit`
TOL = 1e-6

# Generator parameters, recorded in README.md.  Chain entries are
# (base, base parameter, number of star subdivisions).  Subdivision chains
# are drawn from the fixed FAN_SEED, as in the ROADMAP ladder, so every run
# times the same fans: their geometry swings the cost of an operation by
# a factor of two or more, too much for a 30-second run to average out.
# --seed draws everything else: Hirzebruch parameters, the removed and the
# mutated cones, directions, starts, malformed requests and the order.
FAN_SEED = 0
CLI_CORPUS = {
    "complete_builtins": [("cpn", 2), ("cpn", 3), ("cpn", 4), ("hirzebruch", None)],
    "complete_chains": [("cpn", 2, 4), ("cpn", 2, 10), ("hirzebruch", None, 6),
                        ("cpn", 3, 2), ("cpn", 3, 4), ("cpn", 4, 2)],
    "incomplete": ["quadrant", "half_plane", ("drop", "cpn", 2, 3), ("drop", "cpn", 3, 1)],
    "invalid": [("overlap", "cpn", 2, 2), ("non_unimodular", "cpn", 3, 1)],
    "xi_range": 3,
}
BIG_FAN = {
    "fans": [("cpn", 3, 10), ("cpn", 2, 30), ("cpn", 4, 3), ("cpn", 7, 0), ("cpn", 10, 0)],
    "commands": ["validate", "complete --oracle facet", "weights", "reconstruct", "quotient"],
}
FLOW_LIMITS = {
    "fans": [("cpn", 2, 7), ("cpn", 2, 17), ("cpn", 2, 27), ("cpn", 2, 47),
             ("hirzebruch", 1, 16), ("hirzebruch", 2, 26),
             ("cpn", 3, 3), ("cpn", 3, 8), ("cpn", 3, 13),
             ("cpn", 4, 2), ("cpn", 4, 5), ("cpn", 4, 9)],
    # per fan and cycle: direction kinds, rescaled ones as ("scale", k)
    "directions": ["integer"] * 4 + ["rational"] * 2
                  + [("scale", k) for k in (1, 2, 3, -1, -2, -3)],
    "xi_range": 5,
    "denominators": (1, 7),
    "start_modulus": (0.2, 0.9),
    "direction_rounds": 12,
    # traced runs use the first 1/trace_share of the operations
    "trace_share": 4,
}


@dataclass
class Op:
    """One timed operation: `argv` for a CLI command, or `call` for a
    library call.  `check` maps the raw result to (status, detail)."""

    kind: str
    check: Callable
    argv: list | None = None
    call: Callable | None = None
    outputs: list = field(default_factory=list)


@dataclass
class Raw:
    """What an operation produced: exit code and captured streams for a
    CLI command, or the returned value for a library call.  `error` holds
    an exception that escaped."""

    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: BaseException | None = None


# --- input construction --------------------------------------------------


def base_fan(name, param, rng):
    if name == "cpn":
        return exact.cpn(param)
    if name == "hirzebruch":
        return exact.hirzebruch(rng.randint(0, 3) if param is None else param)
    raise ValueError(name)


def fan_document(fan):
    rays, cones = fan
    return json.dumps({"dim": len(rays[0]), "rays": [list(r) for r in rays],
                       "maximal_cones": [list(c) for c in cones]})


def weight_document(fan):
    rays, cones = fan
    records = [{"id": "p" + "-".join(map(str, c)),
                "weights": [list(w) for w in exact.dual_basis([rays[i] for i in c])]}
               for c in cones]
    return json.dumps({"dim": len(rays[0]), "fixed_points": records})


def full_cones(fan):
    rays, cones = fan
    n = len(rays[0])
    return [c for c in cones if len(c) == n]


def random_integer_direction(n, bound, rng):
    while True:
        xi = tuple(rng.randint(-bound, bound) for _ in range(n))
        if any(xi):
            return xi


def xi_arg(xi):
    # A value starting with '-' (such as -1,1, -inf or -1e-3) must be
    # attached with '=', or argparse reads it as an option and exits 2
    # before toricfan sees it.
    return "--xi=" + ",".join(str(x) for x in xi)


# --- output parsing --------------------------------------------------------


def records(text):
    out = {}
    for line in text.splitlines():
        key, *fields = line.split()
        out.setdefault(key, []).append(fields)
    return out


def parse_cone(text):
    return () if text == "-" else tuple(int(x) for x in text.split(","))


def parse_vec(text):
    return tuple(int(x) for x in text.strip("()").split(","))


def read_fan_file(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    return (tuple(tuple(r) for r in doc["rays"]),
            tuple(tuple(sorted(c)) for c in doc["maximal_cones"]))


def expect_code(raw, code, status=WRONG):
    if raw.error is not None:
        return status, f"raised {type(raw.error).__name__}: {raw.error}"
    if raw.code != code:
        return status, f"exit code {raw.code}, expected {code}"
    return None


# --- checks ---------------------------------------------------------------


def check_validate(fan, expect):
    def check(raw):
        recs = records(raw.stdout)
        if expect == "valid":
            bad = expect_code(raw, 0)
            if bad:
                return bad
            if recs.get("ok") != [["true"]] or "violation" in recs:
                return WRONG, "valid fan reported invalid"
            return OK, ""
        bad = expect_code(raw, 1)
        if bad:
            return bad
        axioms = {v[0] for v in recs.get("violation", [])}
        if recs.get("ok") != [["false"]] or expect not in axioms:
            return WRONG, f"expected a {expect} violation, got {sorted(axioms)}"
        return OK, ""
    return check


def check_complete(fan, oracle, expect):
    def check(raw):
        recs = records(raw.stdout)
        if expect == "invalid":
            return expect_code(raw, 1) or (
                (OK, "") if recs.get("ok") == [["invalid-fan"]] else (WRONG, "invalid fan not reported"))
        want = "true" if expect == "complete" else "false"
        bad = expect_code(raw, 0 if expect == "complete" else 1)
        if bad:
            return bad
        if oracle in ("facet", "both") and recs.get("facet") != [[want]]:
            return WRONG, f"facet verdict {recs.get('facet')}, expected {want}"
        if oracle in ("raycast", "both"):
            verdict = recs.get("raycast")
            if expect == "complete" and verdict != [["true"]]:
                return WRONG, f"raycast verdict {verdict} on a complete fan"
            if verdict == [["false"]]:
                witness = parse_vec(recs["witness"][0][0])
                if exact.in_support(fan, witness):
                    return WRONG, f"witness {witness} lies in the support"
            elif expect == "incomplete" and recs.get("disagreement") != [["true"]]:
                return WRONG, "raycast missed and no disagreement reported"
        return OK, ""
    return check


def check_weights(fan, out_path, expect):
    rays, cones = fan

    def check(raw):
        if expect == "invalid":
            return expect_code(raw, 1) or (OK, "")
        bad = expect_code(raw, 0)
        if bad:
            return bad
        with open(out_path, encoding="utf-8") as handle:
            doc = json.load(handle)
        seen = set()
        for rec in doc["fixed_points"]:
            cone = tuple(int(x) for x in rec["id"][1:].split("-"))
            if not exact.pairs_to_identity(rec["weights"], [rays[i] for i in cone]):
                return WRONG, f"weights at {rec['id']} are not the dual basis"
            seen.add(cone)
        if seen != set(full_cones(fan)):
            return WRONG, "fixed points do not match the full-dimensional cones"
        return OK, ""
    return check


def check_reconstruct(fan, out_path):
    def check(raw):
        bad = expect_code(raw, 0)
        if bad:
            return bad
        if not exact.fans_equal(read_fan_file(out_path), fan):
            return WRONG, "round trip differs from the input fan"
        return OK, ""
    return check


def check_quotient(fan, expect):
    rays, cones = fan

    def check(raw):
        if expect == "invalid":
            return expect_code(raw, 1) or (OK, "")
        bad = expect_code(raw, 0)
        if bad:
            return bad
        recs = records(raw.stdout)
        if recs.get("rays") != [[str(len(rays))]]:
            return WRONG, "wrong ray count"
        kernel = [parse_vec(k[0]) for k in recs.get("kernel", [])]
        for k in kernel:
            if any(sum(c * r[i] for c, r in zip(k, rays)) for i in range(len(rays[0]))):
                return WRONG, f"{k} is not in the kernel of the ray matrix"
        expected_rank = len(rays) - exact.rank(rays)
        if len(kernel) != expected_rank or (kernel and exact.rank(kernel) != expected_rank):
            return WRONG, "kernel basis has the wrong rank"
        if recs.get("component_group") != [["trivial"]]:
            return WRONG, "rays of a smooth fan span the lattice"
        zero_sets = {parse_cone(z[0]) for z in recs.get("zero_set", [])}
        if zero_sets != set(cones):
            return WRONG, "allowed zero sets differ from the maximal cones"
        return OK, ""
    return check


def check_atlas(fan, expect):
    rays, cones = fan

    def check(raw):
        if expect == "invalid":
            return expect_code(raw, 1) or (OK, "")
        bad = expect_code(raw, 0)
        if bad:
            return bad
        recs = records(raw.stdout)
        weights = {}
        for fields in recs.get("chart", []):
            cone = parse_cone(fields[0])
            w = [parse_vec(x) for x in fields[1:]]
            if not exact.pairs_to_identity(w, [rays[i] for i in cone]):
                return WRONG, f"chart {cone} weights are not the dual basis"
            weights[cone] = w
        if set(weights) != set(full_cones(fan)):
            return WRONG, "charts do not match the full-dimensional cones"
        transitions = recs.get("transition", [])
        if len(transitions) != len(weights) ** 2:
            return WRONG, "wrong number of transitions"
        for src, dst, rows in transitions:
            src, dst = parse_cone(src), parse_cone(dst)
            got = [tuple(int(x) for x in row.split(",")) for row in rows.split(";")]
            want = [tuple(sum(a * b for a, b in zip(row, rays[i])) for i in src)
                    for row in weights[dst]]
            if got != want:
                return WRONG, f"transition {src} -> {dst} is wrong"
        if recs.get("cocycle") != [["true"]]:
            return WRONG, "cocycle identities reported failed"
        return OK, ""
    return check


def stratum_error(fan, xi, stratum):
    """None when xi lies in the relative interior of the cone over the
    stratum and that cone belongs to the fan; else a description."""
    rays, cones = fan
    if not any(set(stratum) <= set(c) for c in cones):
        return f"stratum {stratum} is not a cone of the fan"
    if not exact.in_relative_interior([rays[i] for i in stratum], xi):
        return f"xi {xi} is not in the relative interior of {stratum}"
    return None


def spurious_convergence(stratum, chart, coords, tol):
    """A claimed convergence must end in a chart holding the stratum, with
    finite coordinates and the stratum's coordinates within tolerance."""
    if not all(cmath.isfinite(z) for z in coords):
        return FAIL, "converged with a non-finite limit"
    if not set(stratum) <= set(chart):
        return FAIL, f"converged in chart {chart}, which misses stratum {stratum}"
    if any(abs(z) > tol for ray, z in zip(chart, coords) if ray in stratum):
        return FAIL, "converged with a stratum coordinate above tolerance"
    return OK, ""


def check_limit(fan, xi, expect, tol):
    def check(raw):
        if expect != "complete":
            # tracking refuses incomplete fans; invalid fans are refused earlier
            bad = expect_code(raw, 1)
            if bad:
                return bad
            if expect == "incomplete" and not raw.stderr.startswith("NotComplete"):
                return WRONG, "incomplete fan not refused as NotComplete"
            return OK, ""
        if raw.error is not None:
            return FAIL, f"raised {type(raw.error).__name__}: {raw.error}"
        recs = records(raw.stdout)
        if "stratum" not in recs:
            return WRONG, f"no stratum reported (exit {raw.code}): {raw.stderr.strip()}"
        err = stratum_error(fan, xi, parse_cone(recs["stratum"][0][0]))
        if err:
            return WRONG, err
        converged = recs.get("converged")
        if raw.code == 0 and converged == [["true"]]:
            coords = [complex(z) for z in recs["limit"][0]]
            return spurious_convergence(parse_cone(recs["stratum"][0][0]),
                                        parse_cone(recs["chart"][0][0]), coords, tol)
        if raw.code == 1 and converged == [["false"]]:
            return FAIL, f"did not converge, residual {recs['residual'][0][0]}"
        return WRONG, f"exit code {raw.code} with converged {converged}"
    return check


def check_lib(fan, out_path):
    def check(raw):
        bad = expect_code(raw, 0)
        if bad:
            return bad
        if not exact.fans_equal(read_fan_file(out_path), fan):
            return WRONG, "builtin fan differs from its definition"
        return OK, ""
    return check


def check_usage_error(status):
    def check(raw):
        return expect_code(raw, 2, status) or (OK, "")
    return check


def check_verify(fan, xi, tol):
    def check(raw):
        if raw.error is not None:
            return FAIL, f"raised {type(raw.error).__name__}: {raw.error}"
        report = raw.value
        err = stratum_error(fan, xi, report.predicted_stratum)
        if err:
            return WRONG, err
        if not report.converged:
            return FAIL, f"did not converge, residual {report.residual:.3e}"
        pt = report.numeric_limit
        return spurious_convergence(report.predicted_stratum, pt.chart, pt.coords, tol)
    return check


# --- workloads -------------------------------------------------------------


class Files:
    """Writes input documents under one directory and names output files."""

    def __init__(self, root):
        self.root = root
        self.count = 0

    def path(self, stem):
        self.count += 1
        return os.path.join(self.root, f"{self.count:04d}-{stem}")

    def write(self, stem, text):
        p = self.path(stem)
        with open(p, "w", encoding="utf-8") as handle:
            handle.write(text)
        return p


def fan_ops(files, fan, expect, rng, xi_bound, commands):
    """The CLI operations on one fan.  `expect` is what the fan is by
    construction: complete, incomplete, or an invalid fan named by the
    axiom it breaks (intersection or unimodular)."""
    invalid = expect in ("intersection", "unimodular")
    verdict = "invalid" if invalid else "ok"
    path = files.write("fan.json", fan_document(fan))
    ops = []
    for command in commands:
        if command == "validate":
            ops.append(Op("validate", check_validate(fan, expect if invalid else "valid"),
                          ["validate", path, "--format", "machine"]))
        elif command.startswith("complete"):
            oracle = command.split()[-1]
            ops.append(Op("complete", check_complete(fan, oracle, "invalid" if invalid else expect),
                          ["complete", path, "--oracle", oracle, "--format", "machine"]))
        elif command == "weights":
            out = files.path("weights.out")
            ops.append(Op("weights", check_weights(fan, out, verdict),
                          ["weights", path, "-o", out], outputs=[out]))
        elif command == "reconstruct":
            if invalid:
                continue
            wpath = files.write("weights.json", weight_document(fan))
            out = files.path("fan.out")
            ops.append(Op("reconstruct", check_reconstruct(fan, out),
                          ["reconstruct", wpath, "-o", out], outputs=[out]))
        elif command == "quotient":
            ops.append(Op("quotient", check_quotient(fan, verdict),
                          ["quotient", path, "--format", "machine"]))
        elif command == "atlas":
            ops.append(Op("atlas", check_atlas(fan, verdict),
                          ["atlas", path, "--format", "machine"]))
        elif command == "limit":
            xi = random_integer_direction(len(fan[0][0]), xi_bound, rng)
            ops.append(Op("limit", check_limit(fan, xi, "invalid" if invalid else expect, TOL),
                          ["limit", path, xi_arg(xi), "--format", "machine"]))
    return ops


def chain(spec, rng):
    name, param, steps = spec
    return exact.subdivision_chain(base_fan(name, param, rng), steps, rng)


ALL_COMMANDS = ["validate", "complete --oracle both", "weights", "reconstruct",
                "quotient", "atlas", "limit"]


def malformed_ops(files, rng):
    """Requests that must exit with code 2.  The flow-parameter ones
    (non-finite --r, non-positive --tol) are accepted by the program at
    the baseline, a known defect, so they FAIL rather than go WRONG."""
    cp2 = exact.cpn(2)
    fan_path = files.write("fan.json", fan_document(cp2))
    xi = random_integer_direction(2, 3, rng)
    broken = rng.choice([
        '{"dim": 2, "rays": [[1, 0], [0, 1]',
        '{"dim": 2, "rays": "none", "maximal_cones": []}',
        '{"dim": 2, "rays": [[1, 0, 0]], "maximal_cones": [[0]]}',
        '[1, 2, 3]',
    ])
    bad_path = files.write("broken.json", broken)
    command = rng.choice(["validate", "quotient", "atlas", "complete"])
    usage = rng.choice([
        ["lib", "nosuch"],
        ["lib", "cpn", "0"],
        ["limit", fan_path, "--xi=1", "--format", "machine"],
        ["limit", fan_path],
    ])
    return [
        Op("malformed", check_usage_error(WRONG), [command, bad_path]),
        Op("malformed", check_usage_error(WRONG), usage),
        Op("malformed", check_usage_error(FAIL),
           ["limit", fan_path, xi_arg(xi), "--r=" + rng.choice(["nan", "inf", "-inf"])]),
        Op("malformed", check_usage_error(FAIL),
           ["limit", fan_path, xi_arg(xi), "--tol=" + rng.choice(["0", "-1e-3", "-1"])]),
    ]


def lib_op(files, params, cone, fan):
    out = files.path("lib.out")
    argv = ["lib", *params, "-o", out]
    if cone is not None:
        argv += ["--cone", ",".join(map(str, cone))]
    return Op("lib", check_lib(fan, out), argv, outputs=[out])


def cli_corpus(files, seed):
    """Small fans through every subcommand, plus malformed requests."""
    rng = random.Random(seed)
    fan_rng = random.Random(FAN_SEED)
    p = CLI_CORPUS
    ops = []
    for name, param in p["complete_builtins"]:
        fan = base_fan(name, param, rng)
        value = param if param is not None else fan[0][2][1]  # hirzebruch a, from ray (-1, a)
        ops.append(lib_op(files, [name, str(value)], None, fan))
        ops += fan_ops(files, fan, "complete", rng, p["xi_range"], ALL_COMMANDS)
    base = exact.cpn(3)
    cone = rng.choice(base[1])
    ops.append(lib_op(files, ["subdivided", "cpn", "3"], cone, exact.star_subdivide(base, cone)))
    for spec in p["complete_chains"]:
        ops += fan_ops(files, chain(spec, fan_rng), "complete", rng, p["xi_range"], ALL_COMMANDS)
    for spec in p["incomplete"]:
        if spec == "quadrant":
            fan = exact.quadrant(rng.choice([2, 3]))
        elif spec == "half_plane":
            fan = ((1, 0), (0, 1), (-1, 0)), ((0, 1), (1, 2))
        else:
            fan = exact.drop_cone(chain(spec[1:], fan_rng), rng)
        ops += fan_ops(files, fan, "incomplete", rng, p["xi_range"], ALL_COMMANDS)
    for kind, *spec in p["invalid"]:
        if kind == "overlap":
            ops += fan_ops(files, exact.mutate_overlap(chain(spec, fan_rng), rng),
                           "intersection", rng, p["xi_range"], ALL_COMMANDS)
        else:
            ops += fan_ops(files, exact.mutate_non_unimodular(chain(spec, fan_rng), rng),
                           "unimodular", rng, p["xi_range"], ALL_COMMANDS)
    ops += malformed_ops(files, rng)
    rng.shuffle(ops)
    return ops, len(ops)


def big_fan(files, seed):
    """A few large complete fans through the commands that validate them."""
    rng = random.Random(seed)
    fan_rng = random.Random(FAN_SEED)
    ops = []
    for spec in BIG_FAN["fans"]:
        ops += fan_ops(files, chain(spec, fan_rng), "complete", rng, 1, BIG_FAN["commands"])
    rng.shuffle(ops)
    return ops, len(ops)


def flow_directions(n, rng):
    p = FLOW_LIMITS
    out = []
    for kind in p["directions"] * p["direction_rounds"]:
        xi = random_integer_direction(n, p["xi_range"], rng)
        if kind == "rational":
            xi = tuple(Fraction(x, rng.randint(*p["denominators"])) for x in xi)
        elif kind != "integer":
            xi = tuple(Fraction(x) * Fraction(10) ** kind[1] for x in xi)
        out.append(xi)
    return out


def flow_limits(files, seed, toricfan):
    """verify_limit on seeded (fan, xi, start) triples.  The fans are
    parsed and validated here, in set-up, as a user holding them would."""
    rng = random.Random(seed)
    fan_rng = random.Random(FAN_SEED)
    p = FLOW_LIMITS
    ops = []
    for spec in p["fans"]:
        fan = chain(spec, fan_rng)
        parsed, _ = toricfan.formats.parse_fan(fan_document(fan))
        if not toricfan.fan.validate(parsed).ok:
            raise RuntimeError(f"generated fan {spec} is invalid")
        for cone in parsed.maximal_cones:
            parsed.chart_weights(cone)
        n = len(fan[0][0])
        charts = full_cones(fan)
        for xi in flow_directions(n, rng):
            chart = rng.choice(charts)
            coords = tuple(cmath.rect(rng.uniform(*p["start_modulus"]),
                                      rng.uniform(0.0, 2.0 * math.pi)) for _ in range(n))
            start = toricfan.flow.chart_point(chart, coords)

            def call(f=parsed, xi=xi, start=start, mod=toricfan.flow):
                return mod.verify_limit(f, xi, start)

            ops.append(Op("verify_limit", check_verify(fan, xi, TOL), call=call))
    rng.shuffle(ops)
    return ops, len(ops) // p["trace_share"]
