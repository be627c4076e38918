import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_unimodular
from toricfan import lattice, toric

from toricfan.errors import (
    BadParam,
    DegenerateSubdivision,
    MalformedInput,
    NotUnimodular,
    UnknownBuiltin,
)
from toricfan.fan import fans_equal, is_complete_facet, make_fan, validate
from toricfan.formats import dump_fan, dump_weight_data, parse_fan, parse_weight_data
from toricfan.library import builtin_fan, cp1, cpn, hirzebruch, quadrant
from toricfan.toric import WeightBasis, WeightData, weight_data_from_fan


class TestLibrary:
    def test_cp1_structure(self):
        f = cp1()
        assert f.rays == ((1,), (-1,))
        assert f.maximal_cones == ((0,), (1,))

    def test_cpn_structure(self):
        f = cpn(2)
        assert f.rays == ((1, 0), (0, 1), (-1, -1))
        assert len(f.maximal_cones) == 3

    def test_hirzebruch_rays(self):
        assert hirzebruch(2).rays == ((1, 0), (0, 1), (-1, 2), (0, -1))

    def test_every_builtin_validates(self):
        for f in (cp1(), cpn(2), cpn(3), cpn(4), hirzebruch(0), hirzebruch(3), quadrant(2)):
            assert validate(f).ok

    def test_projective_spaces_complete(self):
        for k in range(1, 5):
            assert is_complete_facet(cpn(k))[0]

    def test_hirzebruch_complete(self):
        for a in range(4):
            assert is_complete_facet(hirzebruch(a))[0]

    def test_bad_params(self):
        with pytest.raises(BadParam):
            cpn(0)
        with pytest.raises(BadParam):
            hirzebruch(-1)

    def test_dispatch(self):
        assert fans_equal(builtin_fan("cpn", (2,)), cpn(2))
        assert fans_equal(builtin_fan("cp1"), cp1())
        assert fans_equal(builtin_fan("hirzebruch", ("1",)), hirzebruch(1))

    def test_dispatch_subdivided(self):
        f = builtin_fan("subdivided", ("cpn", 2), cone=(0, 1))
        assert f.ray_count == 4
        assert validate(f).ok and is_complete_facet(f)[0]

    def test_dispatch_subdivided_default_cone(self):
        f = builtin_fan("subdivided", ("hirzebruch", 1))
        assert f.ray_count == 5

    def test_unknown_name(self):
        with pytest.raises(UnknownBuiltin):
            builtin_fan("torus")

    def test_subdividing_cp1_is_degenerate(self):
        with pytest.raises(DegenerateSubdivision):
            builtin_fan("subdivided", ("cp1",))


class TestFanFormat:
    def test_round_trip(self):
        for f in (cp1(), cpn(3), hirzebruch(1), quadrant(2)):
            parsed, warnings = parse_fan(dump_fan(f))
            assert warnings == []
            assert fans_equal(parsed, f)

    def test_whitespace_insensitive(self):
        text = '{"dim":2,"rays":[[1,0],[0,1],[-1,-1]],"maximal_cones":[[0,1],[1,2],[0,2]]}'
        f, _ = parse_fan(text)
        assert fans_equal(f, cpn(2))

    def test_non_primitive_ray_normalized_with_warning(self):
        text = json.dumps(
            {"dim": 2, "rays": [[2, 0], [0, 1]], "maximal_cones": [[0, 1]]}
        )
        f, warnings = parse_fan(text)
        assert f.rays[0] == (1, 0)
        assert len(warnings) == 1 and "normalized" in warnings[0]

    def test_rejects_garbage(self):
        with pytest.raises(MalformedInput):
            parse_fan("not json at all {")

    def test_rejects_wrong_shape(self):
        with pytest.raises(MalformedInput):
            parse_fan('{"dim": 2, "rays": [[1, 0, 0]], "maximal_cones": [[0]]}')

    def test_rejects_zero_ray(self):
        with pytest.raises(MalformedInput):
            parse_fan('{"dim": 2, "rays": [[0, 0], [1, 0]], "maximal_cones": [[0, 1]]}')

    def test_rejects_non_integer_entries(self):
        with pytest.raises(MalformedInput):
            parse_fan('{"dim": 1, "rays": [[1.5]], "maximal_cones": [[0]]}')
        with pytest.raises(MalformedInput):
            parse_fan('{"dim": 1, "rays": [[true]], "maximal_cones": [[0]]}')

    def test_rejects_non_integer_cone_entries(self):
        for entry in ("1.0", "true", '"1"'):
            with pytest.raises(MalformedInput, match="^maximal cone 0 must contain integers$"):
                parse_fan('{"dim": 2, "rays": [[1, 0], [0, 1]], "maximal_cones": [[0, %s]]}'
                          % entry)

    def test_rejects_missing_fields(self):
        with pytest.raises(MalformedInput):
            parse_fan('{"dim": 2}')


class TestWeightFormat:
    def test_round_trip(self):
        data = weight_data_from_fan(cpn(2))
        parsed = parse_weight_data(dump_weight_data(data))
        assert parsed == data

    def test_default_ids(self):
        text = json.dumps(
            {"dim": 1, "fixed_points": [{"weights": [[1]]}, {"weights": [[-1]]}]}
        )
        data = parse_weight_data(text)
        assert [b.fixed_point_id for b in data.bases] == ["p0", "p1"]

    def test_rejects_wrong_row_count(self):
        with pytest.raises(MalformedInput):
            parse_weight_data(
                '{"dim": 2, "fixed_points": [{"id": "p", "weights": [[1, 0]]}]}'
            )

    def test_parsing_proves_nothing(self, monkeypatch):
        # fan_from_weight_data proves every basis on its walk, so parsing
        # runs no det; a non-basis parses and is refused there
        calls = []
        monkeypatch.setattr(lattice, "det", lambda m: calls.append(m))
        data = parse_weight_data(dump_weight_data(weight_data_from_fan(cpn(3))))
        assert calls == [] and data == weight_data_from_fan(cpn(3))
        bad = parse_weight_data('{"dim": 2, "fixed_points": [{"id": "p", "weights": [[2, 0], [0, 1]]}]}')
        assert bad.bases[0].weights == ((2, 0), (0, 1)) and calls == []
        with pytest.raises(NotUnimodular, match=r"\|det\| = 2"):
            toric.fan_from_weight_data(bad)

    def test_rejects_empty(self):
        with pytest.raises(MalformedInput):
            parse_weight_data('{"dim": 2, "fixed_points": []}')


@st.composite
def fans(draw):
    """Fans as the constructor takes them, axioms unchecked: distinct
    primitive rays with entries of any sign and size, each in some cone;
    no rays gives the one empty cone."""
    n = draw(st.integers(1, 4))
    entries = st.one_of(st.integers(-3, 3), st.integers(-10 ** 20, 10 ** 20))
    vectors = draw(st.lists(st.tuples(*[entries] * n), max_size=7))
    rays = list(dict.fromkeys(lattice.primitive(v) for v in vectors if any(v)))
    cones = draw(st.lists(st.sets(st.sampled_from(range(len(rays))), max_size=n),
                          max_size=6)) if rays else []
    covered = set().union(*cones)
    cones += [{i} for i in range(len(rays)) if i not in covered]
    return make_fan(rays, cones, dim=n)


@st.composite
def weight_data(draw):
    n = draw(st.integers(1, 4))
    ids = st.text(st.characters(), max_size=6)
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    count = draw(st.integers(1, 5))
    return WeightData(n, tuple(WeightBasis(draw(ids), random_unimodular(n, rng, ops=20))
                               for _ in range(count)))


class TestWritersMatchJson:
    """dump_fan and dump_weight_data write json.dumps(doc, indent=2) + "\\n"."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(fans())
    def test_fan_document(self, f):
        doc = {"dim": f.ambient_dim, "rays": [list(r) for r in f.rays],
               "maximal_cones": [list(c) for c in f.maximal_cones]}
        assert dump_fan(f) == json.dumps(doc, indent=2) + "\n"

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(weight_data())
    def test_weight_document(self, data):
        doc = {"dim": data.dim, "fixed_points": [
            {"id": b.fixed_point_id, "weights": [list(row) for row in b.weights]}
            for b in data.bases]}
        assert dump_weight_data(data) == json.dumps(doc, indent=2) + "\n"
        assert parse_weight_data(dump_weight_data(data)) == data

    def test_edge_cases(self):
        empty = make_fan([], [], dim=2)
        assert empty.maximal_cones == ((),)
        assert dump_fan(empty) == '{\n  "dim": 2,\n  "rays": [],\n  "maximal_cones": [\n    []\n  ]\n}\n'
        data = WeightData(1, (WeightBasis('a"\\\n\u00e9\U0001f600', ((-1,),)),))
        assert json.loads(dump_weight_data(data))["fixed_points"][0]["id"] == data.bases[0].fixed_point_id
        assert '"id": "a\\"\\\\\\n\\u00e9\\ud83d\\ude00"' in dump_weight_data(data)
