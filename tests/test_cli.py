import json
import os

import numpy as np
import pytest

from geodisc.cli import main, parse_points, build_domain
from geodisc.errors import PreconditionError


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


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
