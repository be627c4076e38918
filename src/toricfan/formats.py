"""Text formats for fans and weight data.

Both documents are JSON (hence whitespace-insensitive).  Fan files carry
`dim`, `rays`, and `maximal_cones`; weight files carry `dim` and a list of
`fixed_points` records `{id, weights}`.  Input rays and weight rows need
not be primitive or tidy: rays are normalized with a warning.
"""

from __future__ import annotations

import json
from math import gcd

from .errors import MalformedInput
from .fan import Fan, make_fan
from .toric import WeightBasis, WeightData


def _int_vector(obj, what):
    if type(obj) is not list or not obj:
        raise MalformedInput(f"{what} must be a nonempty list of integers")
    for x in obj:
        if type(x) is not int:  # json gives no int subclass but bool
            raise MalformedInput(f"{what} must contain integers, got {x!r}")
    return tuple(obj)


def _document(text, what):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedInput(f"unparseable {what} document: {e}") from None
    if not isinstance(doc, dict):
        raise MalformedInput(f"{what} document must be a JSON object")
    return doc


def _dim_of(doc):
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise MalformedInput("field 'dim' must be a positive integer")
    return dim


def parse_fan(text) -> tuple[Fan, list[str]]:
    """Parse a fan document; returns the fan and normalization warnings."""
    doc = _document(text, "fan")
    dim = _dim_of(doc)
    rays_field = doc.get("rays")
    cones_field = doc.get("maximal_cones")
    if not isinstance(rays_field, list) or not isinstance(cones_field, list):
        raise MalformedInput("fan document needs list fields 'rays' and 'maximal_cones'")
    warnings = []
    rays = []
    for k, raw in enumerate(rays_field):
        ray = _int_vector(raw, f"ray {k}")
        if len(ray) != dim:
            raise MalformedInput(f"ray {k} has length {len(ray)}, expected {dim}")
        g = gcd(*ray)
        if g == 0:
            raise MalformedInput(f"ray {k} is the zero vector")
        if g != 1:
            prim = tuple(x // g for x in ray)
            warnings.append(f"ray {k} {raw} normalized to {list(prim)}")
            ray = prim
        rays.append(ray)
    cones = []
    for k, raw in enumerate(cones_field):
        if type(raw) is not list:
            raise MalformedInput(f"maximal cone {k} must be a list of ray indices")
        for x in raw:
            if type(x) is not int:
                raise MalformedInput(f"maximal cone {k} must contain integers")
        cones.append(tuple(raw))
    return make_fan(rays, cones, dim=dim), warnings


def _int_lists(rows, indent: int) -> str:
    """The text json.dumps(rows, indent=2) gives a list of integer lists
    whose opening bracket sits in a line indented by `indent` spaces."""
    if not rows:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    entry = "," + pad + "  "
    opening = "[" + pad + "  "
    closing = pad + "]"
    items = [opening + entry.join(map(str, row)) + closing if row else "[]" for row in rows]
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def dump_fan(f: Fan) -> str:
    """The fan document as json.dumps(doc, indent=2) writes it, plus a
    newline; written directly, since json runs its pure-Python encoder
    whenever indent is set."""
    return (f'{{\n  "dim": {f.ambient_dim},\n  "rays": {_int_lists(f.rays, 2)},'
            f'\n  "maximal_cones": {_int_lists(f.maximal_cones, 2)}\n}}\n')


def parse_weight_data(text) -> WeightData:
    """Parse a weight document.  Only its shape is checked here: each
    basis is built unchecked (WeightBasis.of_chart), and
    toric.fan_from_weight_data proves every basis by its dual basis,
    raising NotUnimodular for one that is not a Z-basis."""
    doc = _document(text, "weight data")
    dim = _dim_of(doc)
    records = doc.get("fixed_points")
    if not isinstance(records, list) or not records:
        raise MalformedInput("weight document needs a nonempty list 'fixed_points'")
    bases = []
    for k, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise MalformedInput(f"fixed point {k} must be an object")
        label = rec.get("id", f"p{k}")
        if not isinstance(label, str):
            raise MalformedInput(f"fixed point {k}: 'id' must be a string")
        rows = rec.get("weights")
        if not isinstance(rows, list) or len(rows) != dim:
            raise MalformedInput(f"fixed point {k}: 'weights' must list {dim} covectors")
        weights = []
        for row in rows:
            cov = _int_vector(row, f"weight of fixed point {k}")
            if len(cov) != dim:
                raise MalformedInput(
                    f"fixed point {k}: weight {list(cov)} has length {len(cov)}, expected {dim}"
                )
            weights.append(cov)
        bases.append(WeightBasis.of_chart(label, tuple(weights)))
    return WeightData(dim, tuple(bases))


def dump_weight_data(data: WeightData) -> str:
    """The weight document as json.dumps(doc, indent=2) writes it, plus a
    newline; written directly as dump_fan is, with each id escaped by
    json.dumps."""
    records = ",\n".join(
        f'    {{\n      "id": {json.dumps(b.fixed_point_id)},'
        f'\n      "weights": {_int_lists(b.weights, 6)}\n    }}'
        for b in data.bases
    )
    return f'{{\n  "dim": {data.dim},\n  "fixed_points": [\n{records}\n  ]\n}}\n'
