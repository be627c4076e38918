"""Command-line front end.

Exit codes: 0 for success or a true verdict, 1 for a false verdict (invalid
fan, incomplete fan, inconsistent data, failed verification), 2 for
malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from operator import mul

from . import flow, library, toric
from .errors import (
    BadParam,
    InconsistentData,
    MalformedInput,
    NonFiniteState,
    NotComplete,
    NotPure,
    NotUnimodular,
    ToricFanError,
    TrackingError,
    UnknownBuiltin,
    ZeroCoordinateStart,
)
from .fan import Fan, is_complete_facet, is_complete_raycast, validate
from .formats import dump_fan, dump_weight_data, parse_fan, parse_weight_data

USAGE_ERRORS = (MalformedInput, UnknownBuiltin, BadParam, OSError)
VERDICT_ERRORS = (
    InconsistentData,
    NotPure,
    NotUnimodular,
    NotComplete,
    ZeroCoordinateStart,
    NonFiniteState,
    TrackingError,
)


def _fmt_cone(indices) -> str:
    return ",".join(map(str, indices)) if indices else "-"


def _fmt_vec(v) -> str:
    return "(" + ",".join(map(str, v)) + ")"


def _read_fan(path):
    with open(path, "r", encoding="utf-8") as handle:
        fan, warnings = parse_fan(handle.read())
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return fan


def _require_valid(fan: Fan, out):
    report = validate(fan)
    if not report.ok:
        out.note(f"fan is invalid: {report}")
        return False
    return True


def _parse_rationals(text) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise MalformedInput(f"cannot parse rational vector {text!r}") from None


def _parse_ints(text) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise MalformedInput(f"cannot parse integer list {text!r}") from None


def _parse_complexes(text) -> tuple[complex, ...]:
    try:
        return tuple(complex(part) for part in text.split(","))
    except ValueError:
        raise MalformedInput(f"cannot parse complex vector {text!r}") from None


def _write_or_print(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


class Output:
    """Tiny report writer: prose in text mode, `key value...` lines in
    machine mode."""

    def __init__(self, machine: bool):
        self.machine = machine

    def note(self, text):
        if not self.machine:
            print(text)

    def record(self, key, *fields):
        if self.machine:
            print(" ".join([key, *map(str, fields)]))

    def both(self, key, *fields, text=None):
        if self.machine:
            self.record(key, *fields)
        else:
            print(text if text is not None else " ".join([key, *map(str, fields)]))


def cmd_validate(args) -> int:
    out = Output(args.format == "machine")
    fan = _read_fan(args.fan)
    report = validate(fan)
    out.both("ok", str(report.ok).lower(), text=str(report))
    for v in report.violations:
        out.record("violation", v.axiom,
                    "|".join(_fmt_cone(w) if isinstance(w, tuple) else str(w)
                             for w in v.witness))
    return 0 if report.ok else 1


def cmd_complete(args) -> int:
    if args.oracle != "facet" and args.samples < 1:
        raise BadParam(f"--samples must be at least 1, got {args.samples}")
    out = Output(args.format == "machine")
    fan = _read_fan(args.fan)
    if not _require_valid(fan, out):
        out.record("ok", "invalid-fan")
        return 1
    verdicts = {}
    if args.oracle in ("facet", "both"):
        complete, report = is_complete_facet(fan)
        verdicts["facet"] = complete
        out.both("facet", str(complete).lower(),
                 text=f"facet criterion: {report}")
    if args.oracle in ("raycast", "both"):
        complete, witness = is_complete_raycast(fan, args.samples, args.seed)
        verdicts["raycast"] = complete
        msg = f"ray casting ({args.samples} samples, seed {args.seed}): complete: {str(complete).lower()}"
        if witness is not None:
            msg += f"\n  witness direction outside the support: {_fmt_vec(witness)}"
            out.record("witness", _fmt_vec(witness))
        out.both("raycast", str(complete).lower(), text=msg)
    if len(verdicts) == 2 and verdicts["facet"] != verdicts["raycast"]:
        out.both("disagreement", "true",
                 text="warning: the two completeness checks disagree")
        return 1
    return 0 if all(verdicts.values()) else 1


def cmd_weights(args) -> int:
    out = Output(False)
    fan = _read_fan(args.fan)
    if not _require_valid(fan, out):
        return 1
    data = toric.weight_data_from_fan(fan)
    _write_or_print(dump_weight_data(data), args.output)
    return 0


def cmd_reconstruct(args) -> int:
    with open(args.weights, "r", encoding="utf-8") as handle:
        data = parse_weight_data(handle.read())
    fan = toric.fan_from_weight_data(data)
    _write_or_print(dump_fan(fan), args.output)
    return 0


def cmd_quotient(args) -> int:
    out = Output(args.format == "machine")
    fan = _read_fan(args.fan)
    if not _require_valid(fan, out):
        return 1
    pres = toric.quotient_presentation(fan)
    out.both("rays", pres.ray_count, text=f"coordinates: {pres.ray_count}")
    for ray in pres.ray_matrix:
        out.record("ray", _fmt_vec(ray))
    out.note("kernel of the monomial homomorphism:")
    if not pres.kernel_basis:
        out.note("  trivial")
    for k in pres.kernel_basis:
        out.both("kernel", _fmt_vec(k), text=f"  one-parameter subgroup {_fmt_vec(k)}")
    if pres.component_group:
        out.both("component_group", *pres.component_group,
                 text=f"finite components: {list(pres.component_group)}")
    else:
        out.both("component_group", "trivial", text="finite components: none")
    out.note("allowed zero sets (maximal):")
    for c in fan.maximal_cones:  # the maximal faces of pres.allowed_zero_sets
        out.both("zero_set", _fmt_cone(c), text=f"  {{{_fmt_cone(c)}}}")
    return 0


def cmd_atlas(args) -> int:
    out = Output(args.format == "machine")
    fan = _read_fan(args.fan)
    if not _require_valid(fan, out):
        return 1
    charts = toric.fixed_points(fan)
    labels = [_fmt_cone(c) for c in charts]
    weights = []
    for c, label in zip(charts, labels):
        basis = toric.isotropy_weights(fan, c)
        weights.append(basis.weights)
        rows = " ".join(map(_fmt_vec, basis.weights))
        out.both("chart", label, rows,
                 text=f"fixed point {basis.fixed_point_id}: chart {{{label}}}, weights {rows}")
    # The map from c to d is M_{c->d} = A_d G_c^T: its rows are the weight
    # rows of d paired with the generators of c.  The lines of one source
    # chart are built from G_c and the charts printed above, each distinct
    # weight row paired with G_c once, and written together; so beyond the
    # output only O(m n) rows and their pairings are held.
    #
    # If every A_c G_c^T is the identity, then G_c^T A_c is too, so
    # M_{b->c} M_{a->b} = M_{a->c} and M_{b->a} M_{a->b} = I for all a, b, c.
    # Conversely those identities at a = b = c give M_{c->c}^2 = M_{c->c} = I:
    # the m diagonal checks by toric.transition decide the cocycle.
    identity = toric.MonomialMap.identity(fan.ambient_dim).exponents
    distinct = dict.fromkeys(a for rows in weights for a in rows)
    if out.machine:
        heads = [f"transition {label} " for label in labels]
        targets = [f"{label} " for label in labels]
    else:
        heads = [f"transition {{{label}}} -> {{" for label in labels]
        targets = [f"{label}}}: " for label in labels]
    ok = True
    for c, head in zip(charts, heads):
        gens = fan.generators(c)
        paired = {a: ",".join([str(sum(map(mul, a, g))) for g in gens]) for a in distinct}
        sys.stdout.write("".join([f"{head}{target}{';'.join(map(paired.__getitem__, rows))}\n"
                                  for target, rows in zip(targets, weights)]))
        ok = toric.transition(fan, c, c).exponents == identity and ok
    out.both("cocycle", str(ok).lower(),
             text=f"cocycle identities: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_limit(args) -> int:
    if not math.isfinite(args.r):
        raise BadParam(f"--r must be a finite number, got {args.r}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise BadParam(f"--tol must be a positive finite number, got {args.tol}")
    out = Output(args.format == "machine")
    fan = _read_fan(args.fan)
    if not _require_valid(fan, out):
        return 1
    xi = _parse_rationals(args.xi)
    if len(xi) != fan.ambient_dim:
        raise MalformedInput(f"--xi needs {fan.ambient_dim} entries")
    stratum = flow.limit_stratum(fan, flow.limit_direction(xi, args.r))
    charts = toric.fixed_points(fan)
    if not charts:
        raise NotComplete("fan has no full-dimensional cone")
    if args.chart is not None:
        chart = _parse_ints(args.chart)
    else:
        chart = next((c for c in charts if set(stratum or ()) <= set(c)), charts[0])
    if args.start is not None:
        coords = _parse_complexes(args.start)
        if len(coords) != fan.ambient_dim:
            raise MalformedInput(f"--start needs {fan.ambient_dim} coordinates")
    else:
        coords = (1.0 + 0.0j,) * fan.ambient_dim
    start = flow.chart_point(chart, coords)
    d = flow.direction(xi)
    segments = flow.track(fan, start, d, args.r, stratum)
    report = flow.limit_verdict(fan, stratum, segments, xi, args.tol)
    out.both("stratum", _fmt_cone(report.predicted_stratum),
             text=f"limit stratum: {{{_fmt_cone(report.predicted_stratum)}}}")
    pt = report.numeric_limit
    coord_text = " ".join(f"{z.real:.3e}{z.imag:+.3e}j" for z in pt.coords)
    out.both("chart", _fmt_cone(pt.chart), text=f"final chart: {{{_fmt_cone(pt.chart)}}}")
    out.both("limit", coord_text, text=f"numeric limit at r = {report.horizon}: {coord_text}")
    out.record("horizon", report.horizon)
    out.both("residual", f"{report.residual:.3e}",
             text=f"residual: {report.residual:.3e} (tolerance {args.tol:g})")
    out.both("converged", str(report.converged).lower(),
             text=f"converged: {str(report.converged).lower()}")
    if args.trajectory:
        rows = flow.trajectory_samples(fan, d, segments)
        with open(args.trajectory, "w", encoding="utf-8") as handle:
            handle.write("# r, chart, re(z_1), im(z_1), ...\n")
            for r, c, zs in rows:
                parts = [f"{r!r}", "-".join(map(str, c))]
                for z in zs:
                    parts.append(repr(z.real))
                    parts.append(repr(z.imag))
                handle.write(", ".join(parts) + "\n")
        out.note(f"trajectory written to {args.trajectory}")
    return 0 if report.converged else 1


def cmd_lib(args) -> int:
    cone = _parse_ints(args.cone) if args.cone is not None else None
    fan = library.builtin_fan(args.name, args.params, cone=cone)
    _write_or_print(dump_fan(fan), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers():
    """The full parser, and the parser of each subcommand by name."""
    parser = argparse.ArgumentParser(
        prog="toricfan",
        description="Unimodular fans, toric manifold data, and torus flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="human prose or line-oriented machine output")

    p = sub.add_parser("validate", help="check the fan axioms")
    p.add_argument("fan", help="fan file")
    add_format(p)
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("complete", help="test completeness of a fan")
    p.add_argument("fan")
    p.add_argument("--oracle", choices=("facet", "raycast", "both"), default="both")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(run=cmd_complete)

    p = sub.add_parser("weights", help="export fixed-point weight data")
    p.add_argument("fan")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=cmd_weights)

    p = sub.add_parser("reconstruct", help="rebuild a fan from weight data")
    p.add_argument("weights")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=cmd_reconstruct)

    p = sub.add_parser("quotient", help="quotient presentation of the manifold")
    p.add_argument("fan")
    add_format(p)
    p.set_defaults(run=cmd_quotient)

    p = sub.add_parser("atlas", help="charts, weights, and transition maps")
    p.add_argument("fan")
    add_format(p)
    p.set_defaults(run=cmd_atlas)

    p = sub.add_parser("limit", help="classify and verify a flow limit")
    p.add_argument("fan")
    p.add_argument("--xi", required=True, help="rational direction, e.g. 1,-1")
    p.add_argument("--chart", default=None, help="start chart as ray indices, e.g. 0,1")
    p.add_argument("--start", default=None, help="start coordinates, e.g. 1,1 or 1+1j,2")
    p.add_argument("--tol", type=float, default=flow.DEFAULT_TOL)
    p.add_argument("--r", type=float, default=flow.R_AT_INFINITY,
                   help="flow time to track to; a positive one is checked "
                        "against the stratum of -xi")
    p.add_argument("--trajectory", default=None, help="write sampled trajectory records here")
    add_format(p)
    p.set_defaults(run=cmd_limit)

    p = sub.add_parser("lib", help="emit a builtin fan file")
    p.add_argument("name", help="cp1 | cpn K | hirzebruch A | quadrant [N] | subdivided NAME [PARAMS]")
    p.add_argument("params", nargs="*")
    p.add_argument("--cone", default=None, help="cone to subdivide, e.g. 0,1")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=cmd_lib)

    return parser, sub.choices


# built once per process; parse_args keeps no state
_PARSERS = None

# options whose values may begin with "-", such as the direction -1,1
SIGNED_VALUE_OPTIONS = frozenset(("--xi", "--chart", "--start", "--tol", "--r"))


def _attach_signed_values(argv) -> list[str]:
    """Rewrite `--xi -1,1` as `--xi=-1,1`: argparse takes a separate value
    beginning with "-" for an option unless it looks like a plain
    negative number, and would exit 2 on a direction like -1,1 or
    -1/2,3.  A following token beginning with "--" is left alone."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in SIGNED_VALUE_OPTIONS \
                and token.startswith("-") and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse(argv) -> argparse.Namespace:
    """The full parser's namespace for argv, from the subcommand's own
    parser when argv[0] names one: the full parser would hand it argv[1:]
    anyway, and its help and usage errors come from that parser too.  The
    full parser runs when argv[0] names no subcommand or arguments are
    left over, so its help and its errors keep their text."""
    global _PARSERS
    if _PARSERS is None:
        _PARSERS = _build_parsers()
    parser, subparsers = _PARSERS
    sub = subparsers.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.run(args)
    except USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except VERDICT_ERRORS as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except ToricFanError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
