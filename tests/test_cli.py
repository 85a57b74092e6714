import json
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

from geodisc.cli import build_parser, main, parse_points, build_domain
from geodisc.errors import PreconditionError


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_readme_examples_parse():
    # every command of the README's CLI block parses with today's flags;
    # nothing runs
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("\n```", 1)[0].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("geodisc ")]
    assert len(commands) == 13
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).func is not None


def test_parse_points():
    pts = parse_points("0.5,0")
    assert np.allclose(pts, [0.5, 0.0])
    pts = parse_points("1+2j, -0.3j")
    assert np.allclose(pts, [1 + 2j, -0.3j])
    with pytest.raises(PreconditionError):
        parse_points("abc")


def test_build_domain_inline():
    assert build_domain("ball").meta["radius"] == 1.0
    assert build_domain("ball:0.5").meta["radius"] == 0.5
    assert build_domain("ellipsoid:2,1").kind == "ellipsoid"
    assert build_domain("perturbed_ball:0.05").meta["epsilon"] == 0.05


def test_build_domain_json_file(tmp_path):
    spec = tmp_path / "dom.json"
    spec.write_text(json.dumps({"kind": "ball", "radius": 0.75,
                                "center": [[0.1, 0.0], [0.0, 0.2]]}))
    dom = build_domain(str(spec))
    assert dom.meta["radius"] == 0.75
    assert np.allclose(dom.center, [0.1, 0.2j])


def test_disc_solve_radial(tmp_path):
    code, rep = run(["disc", "solve", "--domain", "ball",
                     "--z", "0,0", "--v", "1,0"], tmp_path)
    assert code == 0
    assert rep["schema"] == 1
    assert "version" in rep and "tolerances" in rep and "config" in rep
    coeffs = rep["results"]["disc"]["coeffs"]
    assert abs(coeffs[1][0][0] - 1.0) < 1e-12    # a_1 = (1, 0)
    assert abs(coeffs[1][1][0]) < 1e-12
    assert rep["results"]["disc"]["residual"] < 1e-10


def test_exit_codes(tmp_path):
    code, _ = run(["disc", "solve", "--domain", "ball",
                   "--z", "2,0", "--v", "1,0"], tmp_path)
    assert code == 2
    code, _ = run(["tangency", "pi", "--domain1", "ball", "--domain2",
                   "ball:0.5", "--z-o", "0.7,0", "--count", "2"], tmp_path)
    assert code == 2    # base point not on the inner boundary


@pytest.mark.parametrize("z,v", [("nan,0", "1,0"), ("0.1,0", "1,inf"),
                                 ("0.1,0,0", "1,0")])
def test_non_finite_or_misshapen_points_exit_2(tmp_path, z, v):
    code, _ = run(["disc", "solve", "--domain", "ball", "--z", z, "--v", v],
                  tmp_path)
    assert code == 2


def test_geodesic_distance(tmp_path):
    code, rep = run(["geodesic", "distance", "--domain", "ball",
                     "--z", "0,0", "--w", "0.5,0"], tmp_path)
    assert code == 0
    assert abs(rep["results"]["kobayashi_distance"]
               - 0.5 * np.log(3.0)) < 1e-8


def test_determinism(tmp_path):
    args = ["repro", "counterexample", "--discs", "8", "--grid", "128"]
    _, rep1 = run(args, tmp_path, "a.json")
    _, rep2 = run(args, tmp_path, "b.json")
    rep1["config"].pop("out")
    rep2["config"].pop("out")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_report_does_not_depend_on_core_count(tmp_path, monkeypatch):
    # the --threads default is written into the report's config
    out = tmp_path / "out.json"
    args = ["disc", "solve", "--domain", "ball", "--z", "0,0", "--v", "1,0",
            "--out", str(out)]
    reports = []
    for cores in (1, 64):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert main(args) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["config"]["threads"] == 1


def test_tangency_trace_csv(tmp_path):
    csv_path = tmp_path / "locus.csv"
    code, rep = run(["tangency", "trace", "--domain1", "ball", "--domain2",
                     "ball:0.5", "--z-o", "0.8,0", "--steps", "10",
                     "--csv", str(csv_path)], tmp_path)
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "re_w1,im_w1,re_w2,im_w2,tangency_constant"
    assert len(lines) - 1 == rep["results"]["count"]
    first = [float(x) for x in lines[1].split(",")]
    assert abs(first[0] - 0.5 ** 2 / 0.8) < 1e-8
    assert first[4] > 0


def test_morera_command(tmp_path):
    code, rep = run(["morera", "--domain", "ball", "--function", "zbar1",
                     "--z", "0,0", "--v", "1,0"], tmp_path)
    assert code == 0
    assert abs(rep["results"]["max_abs"] - 2 * np.pi) < 1e-10
    assert rep["results"]["extendible"] is False


def test_counterexample_command(tmp_path):
    code, rep = run(["repro", "counterexample", "--discs", "16",
                     "--grid", "512"], tmp_path)
    assert code == 0
    per = rep["results"]["per_radius"]
    key = [k for k in per if abs(float(k) - np.sqrt(1 / 3)) < 1e-9][0]
    assert per[key]["max_morera"] <= 1e-10
    assert per[key]["min_defect"] >= 0.01
    control = [k for k in per if abs(float(k) - 0.5) < 1e-9][0]
    assert per[control]["max_morera"] >= 1e-3


def test_extension_verify_command(tmp_path):
    code, rep = run(["extension", "verify", "--domain1", "ball", "--domain2",
                     "ball:0.5", "--function", "holo_mix", "--z", "0.62,0.1",
                     "--discs", "4"], tmp_path)
    assert code == 0
    assert rep["results"]["spread"] < 1e-8
    assert all(rep["results"]["extendible"])


def test_riemann_psi_command(tmp_path):
    code, rep = run(["riemann", "psi", "--domain", "ball",
                     "--z", "0,0", "--w", "0.3,0"], tmp_path)
    assert code == 0
    val = rep["results"]["psi_value"]
    assert abs(val[0][0] - 0.3) < 1e-8 and abs(val[0][1]) < 1e-10
    assert abs(rep["results"]["xi"] - 0.3) < 1e-8


def test_disc_probe_command(tmp_path):
    code, rep = run(["disc", "probe", "--domain", "ball", "--z", "0,0",
                     "--v", "1,0", "--trials", "40"], tmp_path)
    assert code == 0
    assert rep["results"]["max_abs_lambda"] < 1.0


def test_riemann_psi_inverse_command(tmp_path):
    code, rep = run(["riemann", "psi", "--domain", "ball", "--z", "0,0",
                     "--v", "0.3,0", "--inverse"], tmp_path)
    assert code == 0
    val = rep["results"]["point"]
    assert abs(val[0][0] - 0.3) < 1e-8


def test_reconstruct_command_with_csv(tmp_path):
    csv_path = tmp_path / "field.csv"
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[[0.6, 0.0], [0.1, 0.0]],
                               [[0.0, 0.0], [0.65, 0.0]]]))
    code, rep = run(["extension", "reconstruct", "--domain1", "ball",
                     "--domain2", "ball:0.5", "--function", "holo_mix",
                     "--points-file", str(pts), "--discs", "4",
                     "--csv", str(csv_path), "--threads", "1"], tmp_path)
    assert code == 0
    assert rep["results"]["max_spread"] < 1e-8
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("re_z1,")
    assert len(lines) == 3


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("args,expected", [
    (["extension", "reconstruct", "--sample", "1"],
     {"unextended_points": 1, "max_spread": None, "spreads": [None]}),
    (["extension", "verify", "--z", "0.7,0"], {"spread": 0.0}),
], ids=["reconstruct", "verify"])
def test_reports_without_extension_are_strict_json(tmp_path, args, expected):
    # zbar1 extends along no disc, so every value is undefined: written as
    # null, never as a NaN token
    out = tmp_path / "out.json"
    code = main(args + ["--domain1", "ball", "--domain2", "ball:0.5",
                        "--function", "zbar1", "--discs", "4", "--modes",
                        "32", "--grid", "128", "--out", str(out)])
    assert code == 0
    results = _strict_json(out.read_text())["results"]
    assert all(value == [None, 0.0] for value in results["values"])
    for key, value in expected.items():
        assert results[key] == value


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("domain_flags", [
    lambda d: ["--domain", "ellipsoid"],
    lambda d: ["--domain", "perturbed_ball"],
    lambda d: ["--domain", "ball:abc"],
    lambda d: ["--domain", "ellipsoid:2,x"],
    lambda d: ["--domain", "ball:0.5:x"],
    lambda d: ["--domain", str(d / "missing.json")],
    lambda d: ["--domain", _write(d, "broken.json", '{"kind": "ball", ')],
    lambda d: ["--domain", _write(d, "nokind.json", '{"radius": 0.5}')],
    lambda d: ["--domain", _write(d, "list.json", '[1, 2]')],
    lambda d: ["--domain", _write(d, "cube.json", '{"kind": "cube"}')],
    lambda d: ["--domain", "perturbed_ball:0.05:nosuchbump"],
], ids=["ellipsoid-without-axes", "perturbed-ball-without-epsilon",
        "ball-radius-abc", "ellipsoid-axis-x", "ball-extra-field",
        "missing-file", "malformed-json", "json-without-kind",
        "json-not-an-object", "unknown-kind", "unknown-bump"])
def test_malformed_domain_specs_exit_2_naming_the_spec(tmp_path, capsys,
                                                       domain_flags):
    flags = domain_flags(tmp_path)
    code, _ = run(["disc", "solve", "--z", "0.1,0", "--v", "1,0"] + flags,
                  tmp_path)
    assert code == 2
    assert f"domain spec '{flags[1]}'" in capsys.readouterr().err
    with pytest.raises(PreconditionError, match="domain spec"):
        build_domain(flags[1])


@pytest.mark.parametrize("args,flag", [
    (["disc", "solve", "--domain", "ball", "--z", "0.1,0"], "--v"),
    (["riemann", "psi", "--domain", "ball", "--z", "0.1,0"], "--w"),
    (["riemann", "psi", "--domain", "ball", "--z", "0.1,0", "--inverse"],
     "--v"),
], ids=["disc-solve", "psi", "psi-inverse"])
def test_missing_point_flag_exits_2_naming_it(tmp_path, capsys, args, flag):
    code, _ = run(args, tmp_path)
    assert code == 2
    assert f"needs {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, "[[[0.6, 0.0], [0.1, 0.0]], "
                                        "[[0.1, 0.0]]]", "[]", "{"],
                         ids=["missing", "ragged", "empty", "malformed"])
def test_bad_points_file_exits_2_naming_it(tmp_path, capsys, text):
    path = tmp_path / "pts.json"
    if text is not None:
        path.write_text(text)
    code, _ = run(["extension", "reconstruct", "--domain1", "ball",
                   "--domain2", "ball:0.5", "--function", "holo_mix",
                   "--points-file", str(path), "--discs", "2"], tmp_path)
    assert code == 2
    assert f"--points-file '{path}'" in capsys.readouterr().err


@pytest.mark.parametrize("args,flag,handler", [
    (["disc", "solve", "--domain", "ball", "--z", "0,0", "--v", "1,0"],
     "--out", "cmd_disc_solve"),
    (["tangency", "trace", "--domain1", "ball", "--domain2", "ball:0.5",
      "--z-o", "0.7,0"], "--csv", "cmd_tangency_trace"),
    (["extension", "reconstruct", "--domain1", "ball", "--domain2",
      "ball:0.5", "--function", "holo_mix"], "--csv",
     "cmd_extension_reconstruct"),
], ids=["solve-out", "trace-csv", "reconstruct-csv"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_exits_2_before_the_command_runs(
        tmp_path, capsys, monkeypatch, args, flag, handler, where):
    from geodisc import cli

    def unreachable(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, handler, unreachable)
    path = tmp_path / "missing" / "out" if where == "missing-directory" \
        else tmp_path
    assert main(args + [flag, str(path)]) == 2
    assert f"{flag} {path} cannot be written" in capsys.readouterr().err


def test_inline_spec_does_not_depend_on_the_working_directory(tmp_path,
                                                              monkeypatch):
    # an entry named like a shorthand is not read as a domain file
    (tmp_path / "ball").mkdir()
    (tmp_path / "ellipsoid:2,1").write_text('{"kind": "ball"}')
    monkeypatch.chdir(tmp_path)
    assert build_domain("ball").meta["radius"] == 1.0
    assert build_domain("ellipsoid:2,1").kind == "ellipsoid"
    code, rep = run(["disc", "solve", "--domain", "ball", "--z", "0,0",
                     "--v", "1,0"], tmp_path)
    assert code == 0
    assert abs(rep["results"]["disc"]["coeffs"][1][0][0] - 1.0) < 1e-12


@pytest.mark.parametrize("data,kind,meta", [
    ({"kind": "ellipsoid", "semi_axes": [2.0, 1.0]}, "ellipsoid",
     {"semi_axes": [2.0, 1.0]}),
    ({"kind": "perturbed_ball", "epsilon": 0.05, "bump": "re_z1z2",
      "dimension": 3}, "perturbed_ball", {"epsilon": 0.05, "bump": "re_z1z2"}),
], ids=["ellipsoid", "perturbed-ball"])
def test_build_domain_json_file_kinds(tmp_path, data, kind, meta):
    dom = build_domain(_write(tmp_path, "dom.json", json.dumps(data)))
    assert dom.kind == kind
    assert dom.dimension == data.get("dimension", 2)
    for key, value in meta.items():
        assert dom.meta[key] == value


def test_disc_lift_command(tmp_path):
    # the lift of the radial disc of the unit ball through 0 is
    # conj(z) = conj(tau) e_1 on the boundary: a pole 1/tau in z_1
    code, rep = run(["disc", "lift", "--domain", "ball", "--z", "0,0",
                     "--v", "1,0", "--modes", "32", "--grid", "128"],
                    tmp_path)
    assert code == 0
    assert rep["command"] == "disc lift"
    assert set(rep["results"]) == {"lift", "projectivized_residue"}
    residue = np.array([complex(*c) for c in
                        rep["results"]["projectivized_residue"]])
    assert np.allclose(np.abs(residue), [1.0, 0.0], atol=1e-10)


def test_tangency_pi_command(tmp_path):
    # in C^2 the pi set of a base point on the inner boundary is one point
    code, rep = run(["tangency", "pi", "--domain1", "ball", "--domain2",
                     "ball:0.5", "--z-o", "0.5,0", "--count", "3",
                     "--modes", "32", "--grid", "128"], tmp_path)
    assert code == 0
    assert len(rep["results"]["samples"]) == 3
    assert rep["results"]["spread"] < 1e-6


def test_hypothesis_violation_exits_4(tmp_path, capsys, monkeypatch):
    # a nonpositive tangency constant: the inner domain is not strongly
    # convex with respect to the tangent disc
    from geodisc import tangency
    monkeypatch.setattr(tangency, "tangency_order_constant",
                        lambda domain, disc: -1.0)
    code, rep = run(["tangency", "trace", "--domain1", "ball", "--domain2",
                     "ball:0.5", "--z-o", "0.7,0", "--steps", "4",
                     "--modes", "32", "--grid", "128"], tmp_path)
    assert (code, rep) == (4, None)
    assert "tangency constant is not positive" in capsys.readouterr().err


def test_report_does_not_depend_on_blas_threads(tmp_path):
    # the CLI runs numpy's OpenBLAS on one thread, whatever the
    # environment asks for; its thread count moves this trace's closure
    # gap in the last digits
    src = pathlib.Path(__file__).parents[1] / "src"
    args = ["tangency", "trace", "--domain1", "perturbed_ball:0.05",
            "--domain2", "ball:0.5", "--z-o", "0.6,0.1", "--steps", "12",
            "--modes", "32", "--grid", "128", "--out", "report.json"]
    reports = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([str(src),
                                             env.get("PYTHONPATH", "")])
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        subprocess.run([sys.executable, "-m", "geodisc.cli"] + args,
                       cwd=tmp_path, env=env, check=True, timeout=300)
        reports.append((tmp_path / "report.json").read_bytes())
    assert reports[0] == reports[1]
