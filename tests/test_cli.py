import contextlib
import json
import operator
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import toricfan
from corpus import complete_builtins, random_unimodular, subdivision_iterates
from toricfan import cli, flow, lattice, toric
from toricfan.cli import build_parser, main
from toricfan.fan import fans_equal, make_fan, validate
from toricfan.formats import dump_fan, dump_weight_data, parse_fan
from toricfan.library import cpn


@pytest.fixture
def cp2_file(tmp_path):
    path = tmp_path / "cp2.fan"
    assert main(["lib", "cpn", "2", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def quadrant_file(tmp_path):
    path = tmp_path / "quadrant.fan"
    assert main(["lib", "quadrant", "-o", str(path)]) == 0
    return str(path)


class TestExitCodes:
    def test_validate_ok(self, cp2_file, capsys):
        assert main(["validate", cp2_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_invalid_fan(self, tmp_path, capsys):
        path = tmp_path / "bad.fan"
        path.write_text(json.dumps({
            "dim": 2,
            "rays": [[1, 0], [1, 2]],
            "maximal_cones": [[0, 1]],
        }))
        assert main(["validate", str(path)]) == 1
        assert "unimodular" in capsys.readouterr().out

    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.fan"
        path.write_text("{{{{")
        assert main(["validate", str(path)]) == 2

    def test_missing_file(self):
        assert main(["validate", "/nonexistent/nowhere.fan"]) == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


class TestComplete:
    def test_complete_fan(self, cp2_file):
        assert main(["complete", cp2_file]) == 0

    def test_incomplete_raycast_prints_witness(self, quadrant_file, capsys):
        code = main([
            "complete", quadrant_file,
            "--oracle", "raycast", "--samples", "10000", "--seed", "7",
        ])
        assert code == 1
        assert "witness" in capsys.readouterr().out

    def test_incomplete_facet(self, quadrant_file):
        assert main(["complete", quadrant_file, "--oracle", "facet"]) == 1

    def test_machine_format(self, cp2_file, capsys):
        assert main(["complete", cp2_file, "--format", "machine"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "facet true" in lines and "raycast true" in lines

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_rejected(self, cp2_file, samples, capsys):
        assert main(["complete", cp2_file, "--samples", samples]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_deterministic_output(self, quadrant_file, capsys):
        args = ["complete", quadrant_file, "--oracle", "raycast",
                "--samples", "300", "--seed", "42", "--format", "machine"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


class TestWeightsReconstruct:
    def test_round_trip(self, cp2_file, tmp_path):
        wpath = tmp_path / "cp2.weights"
        rpath = tmp_path / "rebuilt.fan"
        assert main(["weights", cp2_file, "-o", str(wpath)]) == 0
        assert main(["reconstruct", str(wpath), "-o", str(rpath)]) == 0
        rebuilt, _ = parse_fan(rpath.read_text())
        assert fans_equal(rebuilt, cpn(2))

    @pytest.mark.parametrize("builtin", [["cpn", "3"], ["hirzebruch", "2"], ["cp1"]])
    def test_round_trip_other_builtins(self, builtin, tmp_path):
        fpath = tmp_path / "f.fan"
        wpath = tmp_path / "f.weights"
        rpath = tmp_path / "rebuilt.fan"
        assert main(["lib", *builtin, "-o", str(fpath)]) == 0
        assert main(["weights", str(fpath), "-o", str(wpath)]) == 0
        assert main(["reconstruct", str(wpath), "-o", str(rpath)]) == 0
        original, _ = parse_fan(fpath.read_text())
        rebuilt, _ = parse_fan(rpath.read_text())
        assert fans_equal(rebuilt, original)

    def test_inconsistent_data_is_verdict_error(self, tmp_path):
        path = tmp_path / "dup.weights"
        path.write_text(json.dumps({
            "dim": 2,
            "fixed_points": [
                {"id": "p", "weights": [[1, 0], [0, 1]]},
                {"id": "q", "weights": [[1, 0], [0, 1]]},
            ],
        }))
        assert main(["reconstruct", str(path)]) == 1

    def test_non_basis_weights_rejected(self, tmp_path):
        path = tmp_path / "bad.weights"
        path.write_text(json.dumps({
            "dim": 2,
            "fixed_points": [{"id": "p", "weights": [[2, 0], [0, 1]]}],
        }))
        assert main(["reconstruct", str(path)]) == 1


class TestQuotient:
    def test_cp2_kernel(self, cp2_file, capsys):
        assert main(["quotient", cp2_file, "--format", "machine"]) == 0
        out = capsys.readouterr().out
        assert "kernel (1,1,1)" in out
        assert "component_group trivial" in out


def brute_cocycle(f):
    """The atlas verdict by the full check: every transition composed
    with its reverse, and every triple of charts composed."""
    charts = toric.fixed_points(f)
    maps = {(c, d): toric.transition(f, c, d) for c in charts for d in charts}
    identity = lattice.identity(f.ambient_dim)
    return all(
        maps[d, c].after(m).exponents == identity for (c, d), m in maps.items()
    ) and all(
        maps[b, c].after(maps[a, b]).exponents == maps[a, c].exponents
        for a in charts for b in charts for c in charts
    )


def atlas_records(path, capsys):
    code = main(["atlas", path, "--format", "machine"])
    lines = capsys.readouterr().out.splitlines()
    return code, [line for line in lines if line.startswith("cocycle ")]


def swap_first_chart_rows(f):
    """Swap the first two weight rows stored for the first chart: the
    rows stay a Z-basis, but no longer pair to 1 with their generators."""
    c = toric.fixed_points(f)[0]
    rows = f.chart_weights(c)
    f.charts[c] = (rows[1], rows[0]) + rows[2:]


class TestAtlas:
    def test_cocycle_ok(self, cp2_file, capsys):
        assert main(["atlas", cp2_file]) == 0
        assert "cocycle identities: ok" in capsys.readouterr().out

    def test_verdict_matches_full_check(self, tmp_path, capsys):
        fans = list(complete_builtins().values()) + subdivision_iterates()
        for k, f in enumerate(fans):
            path = tmp_path / f"{k}.fan"
            path.write_text(dump_fan(f))
            parsed, _ = parse_fan(path.read_text())
            assert brute_cocycle(parsed)
            assert atlas_records(str(path), capsys) == (0, ["cocycle true"])

    def test_swapped_rows_break_the_cocycle(self, tmp_path, monkeypatch, capsys):
        def corrupted_validate(fan, real=cli.validate):
            report = real(fan)
            swap_first_chart_rows(fan)
            return report

        monkeypatch.setattr(cli, "validate", corrupted_validate)
        for k, f in enumerate([cpn(2), cpn(3)] + subdivision_iterates()[:2]):
            path = tmp_path / f"{k}.fan"
            path.write_text(dump_fan(f))
            parsed, _ = parse_fan(path.read_text())
            swap_first_chart_rows(parsed)
            assert not brute_cocycle(parsed)
            assert atlas_records(str(path), capsys) == (1, ["cocycle false"])


def reference_atlas(f, machine):
    """Exit code and stdout of `atlas` on a valid fan, printed from the
    dict of all m^2 maps made by toric.transition, with the cocycle
    verdict read off its diagonal."""
    fmt = cli._fmt_cone
    lines = []
    charts = toric.fixed_points(f)
    for c in charts:
        basis = toric.isotropy_weights(f, c)
        rows = " ".join(map(cli._fmt_vec, basis.weights))
        lines.append(f"chart {fmt(c)} {rows}" if machine else
                     f"fixed point {basis.fixed_point_id}: chart {{{fmt(c)}}}, weights {rows}")
    maps = {(c, d): toric.transition(f, c, d) for c in charts for d in charts}
    for (c, d), m in maps.items():
        rows = ";".join(",".join(map(str, row)) for row in m.exponents)
        lines.append(f"transition {fmt(c)} {fmt(d)} {rows}" if machine else
                     f"transition {{{fmt(c)}}} -> {{{fmt(d)}}}: {rows}")
    identity = lattice.identity(f.ambient_dim)
    ok = all(maps[c, c].exponents == identity for c in charts)
    lines.append(f"cocycle {str(ok).lower()}" if machine else
                 f"cocycle identities: {'ok' if ok else 'FAILED'}")
    return (0 if ok else 1), "".join(line + "\n" for line in lines)


def gl_image(f, rng):
    """The fan's image under a random element of GL(n, Z)."""
    u = random_unimodular(f.ambient_dim, rng)
    return make_fan([tuple(sum(map(operator.mul, row, v)) for row in u) for v in f.rays],
                    f.maximal_cones)


def atlas_corpus():
    """The complete builtins and subdivision iterates, their GL(n, Z)
    images, and every third of their drop-one incomplete fans that still
    use every ray."""
    rng = random.Random(3)
    fans = list(complete_builtins().values()) + subdivision_iterates()
    images = [gl_image(f, rng) for f in fans]
    dropped = []
    for f in fans:
        for i in range(0, len(f.maximal_cones), 3):
            kept = f.maximal_cones[:i] + f.maximal_cones[i + 1:]
            if len(set().union(*kept)) == f.ray_count:
                dropped.append(make_fan(f.rays, kept))
    return fans + images + dropped


class TestAtlasMatchesReference:
    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_bytes_and_exit_code(self, fmt, tmp_path, capsys):
        for k, f in enumerate(atlas_corpus()):
            path = tmp_path / f"{k}.fan"
            path.write_text(dump_fan(f))
            parsed, _ = parse_fan(path.read_text())
            assert validate(parsed).ok
            expected = reference_atlas(parsed, fmt == "machine")
            code = main(["atlas", str(path), "--format", fmt])
            assert (code, capsys.readouterr().out) == expected, f

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_bytes_with_a_broken_cocycle(self, fmt, tmp_path, monkeypatch, capsys):
        def corrupted_validate(fan, real=cli.validate):
            report = real(fan)
            swap_first_chart_rows(fan)
            return report

        monkeypatch.setattr(cli, "validate", corrupted_validate)
        for k, f in enumerate([cpn(3)] + subdivision_iterates()[:2]):
            path = tmp_path / f"{k}.fan"
            path.write_text(dump_fan(f))
            parsed, _ = parse_fan(path.read_text())
            swap_first_chart_rows(parsed)
            expected = reference_atlas(parsed, fmt == "machine")
            assert expected[0] == 1
            code = main(["atlas", str(path), "--format", fmt])
            assert (code, capsys.readouterr().out) == expected, f


def test_atlas_memory_does_not_grow_with_the_map_count(tmp_path):
    """On cp3 chain 100 (204 cones, 41,616 maps) atlas peaks near 21 MB
    under tracemalloc when it keeps every map until the verdict; streamed
    per source chart it holds rows, not maps, and stays below 3 MiB."""
    f = subdivision_iterates(rounds=100, bases=("cp3",))[-1]
    assert len(f.maximal_cones) == 204
    path = tmp_path / "chain.fan"
    path.write_text(dump_fan(f))
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(["atlas", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20, peak


class TestLimit:
    def test_skew_direction(self, cp2_file, capsys):
        assert main(["limit", cp2_file, "--xi", "1,-1"]) == 0
        out = capsys.readouterr().out
        assert "limit stratum: {0,2}" in out
        assert "converged: true" in out

    def test_trajectory_export(self, cp2_file, tmp_path):
        traj = tmp_path / "curve.csv"
        assert main([
            "limit", cp2_file, "--xi", "1,-1", "--trajectory", str(traj),
        ]) == 0
        lines = traj.read_text().splitlines()
        assert lines[0].startswith("#")
        first = lines[1].split(", ")
        assert first[0] == "0.0"
        assert len(first) == 2 + 2 * 2  # r, chart, re/im per coordinate

    def test_rational_direction(self, cp2_file):
        assert main(["limit", cp2_file, "--xi", "1/2,1/3"]) == 0

    def test_incomplete_fan_rejected(self, quadrant_file):
        assert main(["limit", quadrant_file, "--xi", "1,1"]) == 1

    def test_bad_direction_length(self, cp2_file):
        assert main(["limit", cp2_file, "--xi", "1,2,3"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_r_rejected(self, cp2_file, value, capsys):
        assert main(["limit", cp2_file, "--xi=1,-1", f"--r={value}"]) == 2
        assert "--r must be a finite number" in capsys.readouterr().err

    def test_non_finite_start_rejected(self, cp2_file, capsys):
        for value in ["nan,1", "inf,1", "1,-inf", "nan+1j,1"]:
            assert main(["limit", cp2_file, "--xi=1,2", f"--start={value}"]) == 2, value
            assert "start coordinates must be finite" in capsys.readouterr().err
        # a huge start is finite: still tracked, and judged at the horizon
        # where it reaches the fixed point {0, 1}
        assert main(["limit", cp2_file, "--xi=1,2", "--start=1e300,1",
                     "--format", "machine"]) == 0
        recs = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        assert recs["chart"] == "0,1" and recs["converged"] == "true"
        assert float(recs["horizon"]) < flow.R_AT_INFINITY

    @pytest.mark.parametrize("xi, start", [("1,0", "0.5,1.5e308+1.5e308j"),
                                           ("-1,0", "1.5e308+1.5e308j,0.5")])
    def test_start_modulus_beyond_the_float_range(self, cp2_file, xi, start):
        # both parts are finite, the modulus is not: a verdict, no traceback
        src = os.path.dirname(os.path.dirname(os.path.abspath(toricfan.__file__)))
        done = subprocess.run([sys.executable, "-m", "toricfan", "limit", cp2_file, f"--xi={xi}",
                               "--chart", "0,1", f"--start={start}", "--format", "machine"],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode in (0, 1), done.stderr
        assert done.stderr == ""
        assert done.stdout.splitlines()[-1] in ("converged true", "converged false")

    @pytest.mark.parametrize("value", ["0", "-1", "-1e-3", "nan", "inf", "-inf"])
    def test_bad_tol_rejected(self, cp2_file, value, capsys):
        assert main(["limit", cp2_file, "--xi=1,-1", f"--tol={value}"]) == 2
        assert "--tol must be a positive finite number" in capsys.readouterr().err

    def test_forward_flow_reports_the_stratum_of_minus_xi(self, cp2_file, capsys):
        assert main(["limit", cp2_file, "--xi=1,1", "--r", "3", "--format", "machine"]) == 0
        recs = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        assert recs["stratum"] == "2"
        assert recs["chart"] == "0,2"
        assert recs["converged"] == "true"

    def test_forward_flow_from_a_chart_missing_the_stratum(self, cp2_file, capsys):
        code = main(["limit", cp2_file, "--xi=1,1", "--r", "3", "--chart", "0,1",
                     "--format", "machine"])
        recs = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        assert (code, recs["stratum"], recs["converged"]) == (0, "2", "true")

    def test_finite_parameters_accepted(self, cp2_file):
        assert main(["limit", cp2_file, "--xi=1,-1", "--r=-12.5", "--tol=1e-3"]) == 0

    def test_growing_coordinate_below_threshold_over_dbl_max(self, tmp_path, capsys):
        # threshold / 1e-310 overflows to inf; the crossing time must stay
        # finite, or the tracker runs the whole horizon and prints nan
        fan_path = tmp_path / "h1.fan"
        assert main(["lib", "hirzebruch", "1", "-o", str(fan_path)]) == 0
        code = main(["limit", str(fan_path), "--xi=-1,-3000", "--chart", "1,2",
                     "--start", "1e-310,1e-200", "--r", "-100"])
        out, err = capsys.readouterr()
        assert "nan" not in out
        assert "NonFiniteState: no chart can represent the trajectory point" in err
        assert code == 1

    def test_trajectory_tracks_once(self, tmp_path, monkeypatch, capsys):
        fan_path = tmp_path / "h1.fan"
        assert main(["lib", "subdivided", "hirzebruch", "1", "--cone", "0,1",
                     "-o", str(fan_path)]) == 0
        argv = ["limit", str(fan_path), "--xi=2,-3", "--chart", "1,2",
                "--start", "0.5+0.1j,0.7", "--format", "machine"]
        fan, _ = parse_fan(fan_path.read_text())
        xi = (2, -3)
        start = flow.chart_point((1, 2), (0.5 + 0.1j, 0.7 + 0j))
        segments = flow.track(fan, start, flow.direction(xi), flow.R_AT_INFINITY)
        assert len(segments) > 1
        report = flow.verify_limit(fan, xi, start)

        calls = []
        original = flow.track

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(flow, "track", counting)
        traj = tmp_path / "curve.csv"
        assert main(argv + ["--trajectory", str(traj)]) == 0
        assert len(calls) == 1
        out = capsys.readouterr().out.splitlines()
        pt = report.numeric_limit
        assert out == [
            "stratum " + ",".join(map(str, report.predicted_stratum)),
            "chart " + ",".join(map(str, pt.chart)),
            "limit " + " ".join(f"{z.real:.3e}{z.imag:+.3e}j" for z in pt.coords),
            f"horizon {report.horizon}",
            f"residual {report.residual:.3e}",
            "converged true",
        ]
        expected = ["# r, chart, re(z_1), im(z_1), ..."]
        for r, c, zs in flow.trajectory_samples(fan, flow.direction(xi), segments):
            parts = [repr(r), "-".join(map(str, c))]
            for z in zs:
                parts += [repr(z.real), repr(z.imag)]
            expected.append(", ".join(parts))
        assert traj.read_text().splitlines() == expected


class TestSignedValues:
    @pytest.mark.parametrize("xi", ["-1,1", "-1/2,3", "-2,-1"])
    def test_negative_direction_is_a_value(self, cp2_file, xi, capsys):
        code = main(["limit", cp2_file, "--xi", xi, "--format", "machine"])
        spaced = capsys.readouterr()
        assert main(["limit", cp2_file, f"--xi={xi}", "--format", "machine"]) == code
        joined = capsys.readouterr()
        assert code == 0 and spaced == joined
        stratum = flow.limit_stratum(cpn(2), [Fraction(t) for t in xi.split(",")])
        assert spaced.out.splitlines()[0] == "stratum " + ",".join(map(str, stratum))

    def test_negative_start_and_r(self, cp2_file, capsys):
        argv = ["limit", cp2_file, "--xi", "-1,1", "--chart", "1,2",
                "--start", "-0.5,0.25j", "--r", "-1.2e1", "--format", "machine"]
        code = main(argv)
        spaced = capsys.readouterr()
        assert main(["limit", cp2_file, "--xi=-1,1", "--chart", "1,2",
                     "--start=-0.5,0.25j", "--r=-1.2e1", "--format", "machine"]) == code
        assert capsys.readouterr() == spaced and code == 0

    def test_negative_tol_still_rejected(self, cp2_file, capsys):
        assert main(["limit", cp2_file, "--xi", "1,-1", "--tol", "-1e-3"]) == 2
        assert "--tol must be a positive finite number" in capsys.readouterr().err

    def test_missing_value_is_still_a_usage_error(self, cp2_file):
        with pytest.raises(SystemExit) as exit_info:
            main(["limit", cp2_file, "--xi", "--format", "machine"])
        assert exit_info.value.code == 2

    def test_other_commands_unchanged(self, cp2_file, capsys):
        assert main(["complete", cp2_file, "--seed", "-3", "--samples", "50",
                     "--format", "machine"]) == 0
        assert "raycast true" in capsys.readouterr().out.splitlines()

class TestParserReuse:
    def test_options_do_not_leak_between_calls(self, cp2_file, capsys):
        assert main(["validate", cp2_file, "--format", "machine"]) == 0
        assert capsys.readouterr().out == "ok true\n"
        assert main(["validate", cp2_file]) == 0
        assert capsys.readouterr().out == "ok\n"
        assert main(["complete", cp2_file, "--oracle", "facet", "--samples", "5",
                     "--seed", "3", "--format", "machine"]) == 0
        assert capsys.readouterr().out == "facet true\n"
        assert main(["complete", cp2_file]) == 0
        out = capsys.readouterr().out
        assert "facet criterion" in out
        assert "ray casting (10000 samples, seed 0)" in out

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


def parsed(parse, argv, capsys):
    """The namespace parse gives for argv, or its exit code and the text
    it wrote."""
    try:
        return vars(parse(list(argv)))
    except SystemExit as e:
        return e.code, capsys.readouterr()


class TestSubcommandParsers:
    """cli.main parses with the subcommand's own parser; the namespace,
    the help and every usage error are those of the full parser."""

    ARGVS = [
        [], ["-h"], ["--help"], ["frobnicate"], ["--format", "machine", "validate", "f"],
        ["validate", "f"], ["validate", "f", "--format", "machine"], ["validate", "-h"],
        ["validate"], ["validate", "f", "g"], ["validate", "f", "--format", "bogus"],
        ["validate", "--", "f"], ["validate", "f", "--frob"], ["validate", "f", "--form=machine"],
        ["complete", "f", "--oracle", "facet", "--samples", "5", "--seed=-3"],
        ["complete", "f", "--samples", "many"], ["weights", "f", "-o", "out"],
        ["reconstruct", "w"], ["reconstruct", "w", "-o"], ["quotient", "f", "--format", "machine"],
        ["atlas", "f", "x"], ["limit", "f", "--xi=-1,1", "--r=-3", "--chart", "0,1"],
        ["limit", "f"], ["limit", "f", "--xi"], ["limit", "f", "--xi=1,1", "--bogus", "2"],
        ["lib", "cpn", "3"], ["lib", "subdivided", "cpn", "2", "--cone", "0,1", "-o", "x"],
        ["lib"], ["lib", "-h"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_same_as_the_full_parser(self, argv, capsys):
        assert parsed(cli._parse, argv, capsys) == parsed(build_parser().parse_args, argv, capsys)


class TestLib:
    def test_emits_parseable_fan(self, capsys):
        assert main(["lib", "hirzebruch", "1"]) == 0
        f, _ = parse_fan(capsys.readouterr().out)
        assert f.ray_count == 4

    def test_subdivided(self, capsys):
        assert main(["lib", "subdivided", "cpn", "2", "--cone", "0,1"]) == 0
        f, _ = parse_fan(capsys.readouterr().out)
        assert f.ray_count == 4

    def test_unknown_builtin(self, capsys):
        assert main(["lib", "nonsense"]) == 2

    def test_bad_param(self):
        assert main(["lib", "cpn", "0"]) == 2


def test_python_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(toricfan.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "toricfan", "lib", "cpn", "2"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    f, _ = parse_fan(done.stdout)
    assert fans_equal(f, cpn(2))


HASH_SEED_DRIVER = """
import contextlib, io, json, sys
from toricfan.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = open(argv[argv.index("-o") + 1]).read() if "-o" in argv else None
    results.append([argv[0], code, out.getvalue(), err.getvalue(), written])
print(json.dumps(results))
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Every byte that weights, reconstruct, quotient, validate and the
    facet test write is the same under two string-hash seeds, on cpn(10)
    and on a cp3 subdivision chain."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(toricfan.__file__)))
    chain = subdivision_iterates(rounds=10, bases=("cp3",))[-1]
    argvs = []
    for name, f in [("cp10", cpn(10)), ("cp3-chain-10", chain)]:
        fan_path = tmp_path / f"{name}.fan"
        fan_path.write_text(dump_fan(f))
        weights_path = tmp_path / f"{name}.weights"
        weights_path.write_text(dump_weight_data(toric.weight_data_from_fan(f)))
        out = str(tmp_path / f"{name}.out")
        argvs += [["weights", str(fan_path), "-o", out],
                  ["reconstruct", str(weights_path), "-o", out],
                  ["quotient", str(fan_path), "--format", "machine"],
                  ["validate", str(fan_path), "--format", "machine"],
                  ["complete", str(fan_path), "--oracle", "facet", "--format", "machine"]]
    runs = []
    for seed in ("0", "1"):
        done = subprocess.run([sys.executable, "-c", HASH_SEED_DRIVER, json.dumps(argvs)],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    assert [code for _, code, *_ in runs[0]] == [0] * len(argvs)
    assert runs[0] == runs[1]
