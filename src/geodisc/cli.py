"""Command-line front end.

Commands write a versioned JSON report (schema 1, complex numbers always
[re, im], nan as null) embedding the configuration, tool version and
tolerances, so identical configs and seeds give byte-identical reports.
Exit codes: 0 success, 2 precondition error, 3 solver divergence, 4
hypothesis violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .circle import CircleGrid
from .discs import (SolverSettings, extremality_probe, kobayashi_distance,
                    solve_from_center_direction, solve_two_point)
from .domains import (ConvexDomain, _random_directions, make_ball,
                      make_ellipsoid, make_perturbed_ball)
from .errors import (HypothesisViolation, PreconditionError, SolverDivergence)
from .extension import (DEFECT_THRESHOLD, NAMED_FUNCTIONS, consistency_check,
                        counterexample_harness, extension_report, reconstruct)
from .lempert import psi, psi_inverse
from .lifts import projectivize
from .tangency import pi_set_sample, trace_locus

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_DIVERGENCE = 3
EXIT_HYPOTHESIS = 4


def _c2pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def _encode(obj):
    """Recursively encode numpy/complex values for JSON, nan or inf as None."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return _encode(_c2pair(obj))
    if isinstance(obj, np.ndarray):
        return [_encode(x) for x in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(x) for x in obj]
    return obj


def parse_points(text: str) -> np.ndarray:
    """Comma-separated complex coordinates, e.g. '0.5,0' or '1+2j,0.3'."""
    try:
        return np.array([complex(tok.strip().replace(" ", ""))
                         for tok in text.split(",")])
    except ValueError as exc:
        raise PreconditionError(f"cannot parse point '{text}': {exc}")


def build_domain(spec: str, dimension_hint: int = 2) -> ConvexDomain:
    """Domain from an inline shorthand or a JSON file.

    Inline: 'ball', 'ball:R', 'ellipsoid:a1,a2,...',
    'perturbed_ball:EPS[:BUMP]'.  JSON schema:
    {"kind": "ball", "center": [[re,im],...], "radius": R}
    {"kind": "ellipsoid", "semi_axes": [a1, ...]}
    {"kind": "perturbed_ball", "epsilon": e, "bump": name, "dimension": n}
    """
    if os.path.exists(spec) or spec.endswith(".json"):
        with open(spec) as fh:
            data = json.load(fh)
        kind = data["kind"]
        if kind == "ball":
            center = data.get("center")
            if center is None:
                center = np.zeros(data.get("dimension", dimension_hint))
            else:
                center = np.array([complex(re, im) for re, im in center])
            return make_ball(center, float(data.get("radius", 1.0)))
        if kind == "ellipsoid":
            return make_ellipsoid(data["semi_axes"])
        if kind == "perturbed_ball":
            return make_perturbed_ball(float(data["epsilon"]),
                                       data.get("bump", "re_z1_sq"),
                                       int(data.get("dimension", dimension_hint)))
        raise PreconditionError(f"unknown domain kind '{kind}'")
    parts = spec.split(":")
    if parts[0] == "ball":
        radius = float(parts[1]) if len(parts) > 1 else 1.0
        return make_ball(np.zeros(dimension_hint), radius)
    if parts[0] == "ellipsoid":
        return make_ellipsoid([float(a) for a in parts[1].split(",")])
    if parts[0] == "perturbed_ball":
        eps = float(parts[1])
        bump = parts[2] if len(parts) > 2 else "re_z1_sq"
        return make_perturbed_ball(eps, bump, dimension_hint)
    raise PreconditionError(f"unknown domain spec '{spec}'")


def _settings(args) -> SolverSettings:
    return SolverSettings(modes=args.modes, grid=CircleGrid(args.grid),
                          newton_tol=args.tol)


def _report(args, command, results):
    report = {
        "schema": 1,
        "version": __version__,
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("func",) and v is not None},
        "tolerances": {
            "newton_tol": args.tol,
            "defect_threshold": DEFECT_THRESHOLD,
        },
        "results": _encode(results),
    }
    text = json.dumps(_encode(report), sort_keys=True, indent=2,
                      allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _function(name):
    if name not in NAMED_FUNCTIONS:
        raise PreconditionError(
            f"unknown function '{name}'; choices: {sorted(NAMED_FUNCTIONS)}")
    return NAMED_FUNCTIONS[name]


# -- command handlers --------------------------------------------------


def cmd_disc_solve(args):
    z = parse_points(args.z)
    domain = build_domain(args.domain1, len(z))
    settings = _settings(args)
    if args.w:
        disc, xi = solve_two_point(domain, z, parse_points(args.w), settings)
        results = {"disc": disc.to_json(), "xi": xi}
    else:
        disc, lift = solve_from_center_direction(
            domain, z, parse_points(args.v), settings)
        results = {"disc": disc.to_json()}
    _report(args, "disc solve", results)
    return EXIT_OK


def cmd_disc_lift(args):
    z = parse_points(args.z)
    domain = build_domain(args.domain1, len(z))
    disc, lift = solve_from_center_direction(
        domain, z, parse_points(args.v), _settings(args))
    _report(args, "disc lift", {
        "lift": lift.to_json(),
        "projectivized_residue": projectivize(lift, 0.0),
    })
    return EXIT_OK


def cmd_disc_probe(args):
    z = parse_points(args.z)
    domain = build_domain(args.domain1, len(z))
    disc, _ = solve_from_center_direction(domain, z, parse_points(args.v),
                                          _settings(args))
    probe = extremality_probe(domain, disc, args.trials, seed=args.seed)
    _report(args, "disc probe", {
        "max_abs_lambda": probe.max_abs_lambda,
        "trials": probe.trials,
    })
    return EXIT_OK


def cmd_geodesic_distance(args):
    z = parse_points(args.z)
    domain = build_domain(args.domain1, len(z))
    dist = kobayashi_distance(domain, z, parse_points(args.w), _settings(args))
    _report(args, "geodesic distance", {"kobayashi_distance": dist})
    return EXIT_OK


def cmd_riemann_psi(args):
    z = parse_points(args.z)
    domain = build_domain(args.domain1, len(z))
    if args.inverse:
        w = psi_inverse(domain, z, parse_points(args.v), _settings(args))
        _report(args, "riemann psi", {"point": w})
    else:
        sample = psi(domain, z, parse_points(args.w), _settings(args))
        _report(args, "riemann psi", {"psi_value": sample.psi_value,
                                      "xi": sample.xi})
    return EXIT_OK


def cmd_tangency_trace(args):
    z_o = parse_points(args.z_o)
    domain1 = build_domain(args.domain1, len(z_o))
    domain2 = build_domain(args.domain2, len(z_o))
    locus = trace_locus(domain1, domain2, z_o, args.steps, _settings(args))
    rows = []
    for p in locus.points:
        row = []
        for c in p.w:
            row.extend(_c2pair(c))
        row.append(p.tangency_constant)
        rows.append(row)
    if args.csv:
        n = len(z_o)
        header = []
        for j in range(1, n + 1):
            header += [f"re_w{j}", f"im_w{j}"]
        header.append("tangency_constant")
        _write_csv(args.csv, header, rows)
    _report(args, "tangency trace", {
        "points": rows,
        "closure_gap": locus.closure_gap,
        "diameter": locus.diameter(),
        "count": len(locus.points),
    })
    return EXIT_OK


def cmd_tangency_pi(args):
    z_o = parse_points(args.z_o)
    domain1 = build_domain(args.domain1, len(z_o))
    domain2 = build_domain(args.domain2, len(z_o))
    samples = pi_set_sample(domain1, domain2, z_o, args.count,
                            _settings(args), seed=args.seed)
    spread = float(np.max(np.abs(samples - samples[0]))) if len(samples) else 0.0
    _report(args, "tangency pi", {"samples": samples, "spread": spread})
    return EXIT_OK


def cmd_extension_verify(args):
    z = parse_points(args.z)
    domain1 = build_domain(args.domain1, len(z))
    domain2 = build_domain(args.domain2, len(z))
    report = consistency_check(_function(args.function), domain1, domain2, z,
                               args.discs, _settings(args))
    _report(args, "extension verify", {
        "point": report.point,
        "values": report.values,
        "defects": report.defects,
        "extendible": [bool(b) for b in report.extendible],
        "spread": report.spread,
    })
    return EXIT_OK


def cmd_extension_reconstruct(args):
    if args.points_file:
        with open(args.points_file) as fh:
            pts = np.array([[complex(re, im) for re, im in row]
                            for row in json.load(fh)])
        domain1 = build_domain(args.domain1, pts.shape[1])
        domain2 = build_domain(args.domain2, pts.shape[1])
    else:
        domain1 = build_domain(args.domain1, 2)
        domain2 = build_domain(args.domain2, 2)
        pts = _sample_shell_points(domain1, domain2, args.sample, args.seed)
    dim = pts.shape[1]
    result = reconstruct(_function(args.function), domain1, domain2, pts,
                         disc_count=args.discs, settings=_settings(args),
                         threads=args.threads)
    if args.csv:
        rows = []
        for p, v, s in zip(result.points, result.values, result.spreads):
            row = []
            for c in p:
                row.extend(_c2pair(c))
            row += [float(v.real), float(v.imag), float(s)]
            rows.append(row)
        header = []
        for j in range(1, dim + 1):
            header += [f"re_z{j}", f"im_z{j}"]
        header += ["re_value", "im_value", "spread"]
        _write_csv(args.csv, header, rows)
    _report(args, "extension reconstruct", {
        "points": result.points,
        "values": result.values,
        "spreads": result.spreads,
        "max_spread": result.max_spread,
        "defect_failures": result.defect_failures,
        "unextended_points": result.unextended_points,
        "inner_region": "filled by Hartogs (not computed)",
    })
    return EXIT_OK


def _sample_shell_points(domain1, domain2, count, seed):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        d = _random_directions(rng, 1, domain1.dimension)[0]
        outer = domain1.boundary_point(d)
        inner = domain2.boundary_point(d)
        t = rng.uniform(0.25, 0.6)
        p = inner + t * (outer - inner)
        if domain1.rho(p) < -1e-6 and domain2.rho(p) > 1e-6:
            pts.append(p)
    return np.array(pts)


def cmd_morera(args):
    z = parse_points(args.z)
    domain1 = build_domain(args.domain1, len(z))
    disc, _ = solve_from_center_direction(domain1, z, parse_points(args.v),
                                          _settings(args))
    f = _function(args.function)
    report = extension_report(f, disc)
    _report(args, "morera", {
        "integrals": report.morera,
        "max_abs": float(np.max(np.abs(report.morera))),
        "defect": report.defect,
        "extendible": report.extendible,
    })
    return EXIT_OK


def cmd_repro_counterexample(args):
    rep = counterexample_harness(n_discs=args.discs, grid_size=args.grid)
    results = {
        "function": rep.function,
        "disc_count": rep.disc_count,
        "grid_size": rep.grid_size,
        "per_radius": {f"{r:.12f}": d for r, d in rep.per_radius.items()},
        "holomorphic_control": rep.holomorphic_control,
    }
    _report(args, "repro counterexample", results)
    return EXIT_OK


# -- parser ------------------------------------------------------------


def _add_common(p):
    p.add_argument("--modes", type=int, default=64, help="series truncation M")
    p.add_argument("--grid", type=int, default=256, help="circle grid size N")
    p.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: geodisc starts no threads "
                        "(numpy's OpenBLAS may; OPENBLAS_NUM_THREADS=1 gives "
                        "reproducible reports)")
    p.add_argument("--out", help="write the JSON report to this path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="geodisc",
        description="Stationary discs of strongly convex domains, their "
                    "conormal lifts, tangency loci, and holomorphic "
                    "extension of boundary data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="group", required=True)

    disc = sub.add_parser("disc", help="single-disc operations")
    disc_sub = disc.add_subparsers(dest="command", required=True)
    p = disc_sub.add_parser("solve", help="solve a stationary disc")
    p.add_argument("--domain1", "--domain", dest="domain1", required=True)
    p.add_argument("--z", required=True, help="center point, e.g. '0.3,0.1j'")
    p.add_argument("--v", help="direction (center-direction solve)")
    p.add_argument("--w", help="second point (two-point solve)")
    _add_common(p)
    p.set_defaults(func=cmd_disc_solve)
    p = disc_sub.add_parser("lift", help="solve a disc and report its lift")
    p.add_argument("--domain1", "--domain", dest="domain1", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--v", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_disc_lift)
    p = disc_sub.add_parser("probe", help="extremality probe")
    p.add_argument("--domain1", "--domain", dest="domain1", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--trials", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_disc_probe)

    geo = sub.add_parser("geodesic", help="Kobayashi geometry")
    geo_sub = geo.add_subparsers(dest="command", required=True)
    p = geo_sub.add_parser("distance", help="Kobayashi distance of two points")
    p.add_argument("--domain1", "--domain", dest="domain1", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--w", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_geodesic_distance)

    rie = sub.add_parser("riemann", help="the Lempert Riemann map")
    rie_sub = rie.add_subparsers(dest="command", required=True)
    p = rie_sub.add_parser("psi", help="evaluate Psi_z(w) (or its inverse)")
    p.add_argument("--domain1", "--domain", dest="domain1", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--w", help="argument of Psi_z")
    p.add_argument("--v", help="argument of the inverse map")
    p.add_argument("--inverse", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_riemann_psi)

    tan = sub.add_parser("tangency", help="tangency locus operations")
    tan_sub = tan.add_subparsers(dest="command", required=True)
    p = tan_sub.add_parser("trace", help="trace the tangency locus")
    p.add_argument("--domain1", required=True)
    p.add_argument("--domain2", required=True)
    p.add_argument("--z-o", dest="z_o", required=True)
    p.add_argument("--steps", type=int, default=24)
    p.add_argument("--csv", help="write locus samples as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_tangency_trace)
    p = tan_sub.add_parser("pi", help="sample projectivized lift residues")
    p.add_argument("--domain1", required=True)
    p.add_argument("--domain2", required=True)
    p.add_argument("--z-o", dest="z_o", required=True)
    p.add_argument("--count", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_tangency_pi)

    ext = sub.add_parser("extension", help="holomorphic extension checks")
    ext_sub = ext.add_subparsers(dest="command", required=True)
    p = ext_sub.add_parser("verify", help="per-point consistency check")
    p.add_argument("--domain1", required=True)
    p.add_argument("--domain2", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--discs", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_extension_verify)
    p = ext_sub.add_parser("reconstruct", help="field reconstruction")
    p.add_argument("--domain1", required=True)
    p.add_argument("--domain2", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--points-file", help="JSON [[re,im],...] per point")
    p.add_argument("--sample", type=int, default=16,
                   help="number of shell points to sample")
    p.add_argument("--discs", type=int, default=8)
    p.add_argument("--csv", help="write (point, value, spread) rows as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_extension_reconstruct)

    p = sub.add_parser("morera", help="Morera integrals along one disc")
    p.add_argument("--domain1", "--domain", dest="domain1", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--v", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_morera)

    rep = sub.add_parser("repro", help="reproduce reference experiments")
    rep_sub = rep.add_subparsers(dest="command", required=True)
    p = rep_sub.add_parser("counterexample",
                           help="Morera-vs-extendibility dichotomy for "
                                "concentric balls")
    p.add_argument("--discs", type=int, default=64)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored, as for the other commands")
    p.add_argument("--out")
    p.set_defaults(func=cmd_repro_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SolverDivergence as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
