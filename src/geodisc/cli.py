"""Command-line front end.

Each ``cmd_*`` handler maps parsed arguments to its results, and
:func:`main` writes them as one versioned JSON report (schema 1, complex
numbers always [re, im], nan as null) embedding the configuration, tool
version and tolerances; with numpy's bundled OpenBLAS on one thread,
identical configs and seeds give byte-identical reports.  Malformed
domain specs, points and point files are precondition errors, and so
is an --out or --csv path that cannot be written, found before the
command runs.  Exit codes: 0 success, 2 precondition error, 3 solver
divergence, 4 hypothesis violation.
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
from .discs import (SolverSettings, _use_one_blas_thread, extremality_probe,
                    kobayashi_distance, solve_from_center_direction,
                    solve_two_point)
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
    if isinstance(obj, (np.ndarray, list, tuple)):
        return [_encode(x) for x in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    return obj


def parse_points(text: str) -> np.ndarray:
    """Comma-separated complex coordinates, e.g. '0.5,0' or '1+2j,0.3'."""
    try:
        return np.array([complex(tok.strip().replace(" ", ""))
                         for tok in text.split(",")])
    except ValueError as exc:
        raise PreconditionError(f"cannot parse point '{text}': {exc}")


def _points_flag(args, name):
    """The point of flag --name, which the command needs."""
    if getattr(args, name) is None:
        raise PreconditionError(f"this command needs --{name}")
    return parse_points(getattr(args, name))


def _points_file(path) -> np.ndarray:
    """The (count, n) points of a JSON file [[[re, im], ...], ...]."""
    try:
        with open(path) as fh:
            pts = np.array([[complex(re, im) for re, im in row]
                            for row in json.load(fh)])
    except (OSError, TypeError, ValueError) as exc:
        raise PreconditionError(f"--points-file '{path}': {exc}") from exc
    if pts.ndim != 2 or pts.size == 0:
        raise PreconditionError(f"--points-file '{path}' must hold one or "
                                "more points of one dimension")
    return pts


#: the fields of each inline domain shorthand 'kind:field:...', in order
_INLINE_FIELDS = {"ball": ("radius",), "ellipsoid": ("semi_axes",),
                  "perturbed_ball": ("epsilon", "bump")}


def build_domain(spec: str, dimension_hint: int = 2) -> ConvexDomain:
    """Domain from an inline shorthand or a JSON file.

    Inline: 'ball', 'ball:R', 'ellipsoid:a1,a2,...',
    'perturbed_ball:EPS[:BUMP]'.  A spec is inline when the part before
    its first ':' is one of these kinds, and a path otherwise; either
    gives the dict of the JSON schema:
    {"kind": "ball", "center": [[re,im],...], "radius": R}
    {"kind": "ellipsoid", "semi_axes": [a1, ...]}
    {"kind": "perturbed_ball", "epsilon": e, "bump": name, "dimension": n}
    A spec that cannot be read or builds no domain raises
    :class:`PreconditionError` naming it.
    """
    kind, *fields = spec.split(":")
    try:
        if kind in _INLINE_FIELDS:
            if len(fields) > len(_INLINE_FIELDS[kind]):
                raise PreconditionError(f"too many fields for '{kind}'")
            data = dict(zip(_INLINE_FIELDS[kind], fields), kind=kind)
            if "semi_axes" in data:
                data["semi_axes"] = data["semi_axes"].split(",")
        else:
            with open(spec) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise PreconditionError("a domain file holds one JSON object")
        kind = data["kind"]
        dimension = int(data.get("dimension", dimension_hint))
        if kind == "ball":
            center = data.get("center")
            center = (np.zeros(dimension) if center is None
                      else np.array([complex(re, im) for re, im in center]))
            return make_ball(center, float(data.get("radius", 1.0)))
        if kind == "ellipsoid":
            return make_ellipsoid(data["semi_axes"])
        if kind == "perturbed_ball":
            return make_perturbed_ball(float(data["epsilon"]),
                                       data.get("bump", "re_z1_sq"), dimension)
        raise PreconditionError(f"unknown domain kind '{kind}'")
    except KeyError as exc:
        raise PreconditionError(
            f"domain spec '{spec}' has no {exc} field") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise PreconditionError(f"domain spec '{spec}': {exc}") from exc


def _settings(args) -> SolverSettings:
    return SolverSettings(modes=args.modes, grid=CircleGrid(args.grid),
                          newton_tol=args.tol)


def _point_and_domain(args):
    """--z, and the --domain1 domain of its dimension."""
    z = parse_points(args.z)
    return z, build_domain(args.domain1, len(z))


def _two_domains(args, dimension):
    return (build_domain(args.domain1, dimension),
            build_domain(args.domain2, dimension))


def _center_direction_disc(args):
    """(domain, disc, lift) of the --domain1 disc through --z along --v."""
    z, domain = _point_and_domain(args)
    disc, lift = solve_from_center_direction(domain, z, _points_flag(args, "v"),
                                             _settings(args))
    return domain, disc, lift


def _report(args, results):
    report = {
        "schema": 1,
        "version": __version__,
        # "morera" is the one command without a subcommand
        "command": " ".join(filter(None, (args.group,
                                          getattr(args, "command", None)))),
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("func",) and v is not None},
        "tolerances": {
            "newton_tol": args.tol,
            "defect_threshold": DEFECT_THRESHOLD,
        },
        "results": results,
    }
    text = json.dumps(_encode(report), sort_keys=True, indent=2,
                      allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _check_writable(args):
    """Raise PreconditionError, naming the flag and the path, for an --out
    or --csv file that cannot be written; checked before the command runs,
    which may take minutes."""
    for flag in ("out", "csv"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            reason = "it is a directory"
        elif not os.path.isdir(folder):
            reason = f"no directory {folder}"
        elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
            reason = "permission denied"
        else:
            continue
        raise PreconditionError(f"--{flag} {path} cannot be written: {reason}")


def _point_row(point, values):
    """[Re p_1, Im p_1, ..., Re p_n, Im p_n, *values]."""
    return [x for c in point for x in _c2pair(c)] + list(values)


def _write_csv(path, coordinate, dimension, columns, rows):
    """Write :func:`_point_row` rows under their header."""
    header = [f"{part}_{coordinate}{j}" for j in range(1, dimension + 1)
              for part in ("re", "im")] + columns
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _function(name):
    if name not in NAMED_FUNCTIONS:
        raise PreconditionError(
            f"unknown function '{name}'; choices: {sorted(NAMED_FUNCTIONS)}")
    return NAMED_FUNCTIONS[name]


# -- command handlers: each returns its report's results ---------------


def cmd_disc_solve(args):
    if args.w:
        z, domain = _point_and_domain(args)
        disc, xi = solve_two_point(domain, z, parse_points(args.w),
                                   _settings(args))
        return {"disc": disc.to_json(), "xi": xi}
    _, disc, _ = _center_direction_disc(args)
    return {"disc": disc.to_json()}


def cmd_disc_lift(args):
    _, _, lift = _center_direction_disc(args)
    return {
        "lift": lift.to_json(),
        "projectivized_residue": projectivize(lift, 0.0),
    }


def cmd_disc_probe(args):
    domain, disc, _ = _center_direction_disc(args)
    probe = extremality_probe(domain, disc, args.trials, seed=args.seed)
    return {
        "max_abs_lambda": probe.max_abs_lambda,
        "trials": probe.trials,
    }


def cmd_geodesic_distance(args):
    z, domain = _point_and_domain(args)
    dist = kobayashi_distance(domain, z, parse_points(args.w), _settings(args))
    return {"kobayashi_distance": dist}


def cmd_riemann_psi(args):
    z, domain = _point_and_domain(args)
    if args.inverse:
        w = psi_inverse(domain, z, _points_flag(args, "v"), _settings(args))
        return {"point": w}
    sample = psi(domain, z, _points_flag(args, "w"), _settings(args))
    return {"psi_value": sample.psi_value, "xi": sample.xi}


def cmd_tangency_trace(args):
    z_o = parse_points(args.z_o)
    domain1, domain2 = _two_domains(args, len(z_o))
    locus = trace_locus(domain1, domain2, z_o, args.steps, _settings(args))
    rows = [_point_row(p.w, [p.tangency_constant]) for p in locus.points]
    if args.csv:
        _write_csv(args.csv, "w", len(z_o), ["tangency_constant"], rows)
    return {
        "points": rows,
        "closure_gap": locus.closure_gap,
        "diameter": locus.diameter(),
        "count": len(locus.points),
    }


def cmd_tangency_pi(args):
    z_o = parse_points(args.z_o)
    domain1, domain2 = _two_domains(args, len(z_o))
    samples = pi_set_sample(domain1, domain2, z_o, args.count,
                            _settings(args), seed=args.seed)
    spread = float(np.max(np.abs(samples - samples[0]))) if len(samples) else 0.0
    return {"samples": samples, "spread": spread}


def cmd_extension_verify(args):
    z = parse_points(args.z)
    domain1, domain2 = _two_domains(args, len(z))
    report = consistency_check(_function(args.function), domain1, domain2, z,
                               args.discs, _settings(args))
    return {
        "point": report.point,
        "values": report.values,
        "defects": report.defects,
        "extendible": [bool(b) for b in report.extendible],
        "spread": report.spread,
    }


def cmd_extension_reconstruct(args):
    pts = _points_file(args.points_file) if args.points_file else None
    domain1, domain2 = _two_domains(args, 2 if pts is None else pts.shape[1])
    if pts is None:
        pts = _sample_shell_points(domain1, domain2, args.sample, args.seed)
    result = reconstruct(_function(args.function), domain1, domain2, pts,
                         disc_count=args.discs, settings=_settings(args),
                         threads=args.threads)
    if args.csv:
        rows = [_point_row(p, [float(v.real), float(v.imag), float(s)])
                for p, v, s in zip(result.points, result.values,
                                   result.spreads)]
        _write_csv(args.csv, "z", pts.shape[1],
                   ["re_value", "im_value", "spread"], rows)
    return {
        "points": result.points,
        "values": result.values,
        "spreads": result.spreads,
        "max_spread": result.max_spread,
        "defect_failures": result.defect_failures,
        "unextended_points": result.unextended_points,
        "inner_region": "filled by Hartogs (not computed)",
    }


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
    _, disc, _ = _center_direction_disc(args)
    report = extension_report(_function(args.function), disc)
    return {
        "integrals": report.morera,
        "max_abs": float(np.max(np.abs(report.morera))),
        "defect": report.defect,
        "extendible": report.extendible,
    }


def cmd_repro_counterexample(args):
    rep = counterexample_harness(n_discs=args.discs, grid_size=args.grid)
    return {
        "function": rep.function,
        "disc_count": rep.disc_count,
        "grid_size": rep.grid_size,
        "per_radius": {f"{r:.12f}": d for r, d in rep.per_radius.items()},
        "holomorphic_control": rep.holomorphic_control,
    }


# -- parser ------------------------------------------------------------


def _add_common(p, func):
    """The flags of all but "repro counterexample", and the handler."""
    p.add_argument("--modes", type=int, default=64, help="series truncation M")
    p.add_argument("--grid", type=int, default=256, help="circle grid size N")
    p.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: geodisc starts no threads, "
                        "and sets numpy's bundled OpenBLAS to one thread")
    p.add_argument("--out", help="write the JSON report to this path")
    p.set_defaults(func=func)


def _group(sub, name, text):
    """The subcommands of group ``name``; the report names both."""
    return sub.add_parser(name, help=text).add_subparsers(dest="command",
                                                          required=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="geodisc",
        description="Stationary discs of strongly convex domains, their "
                    "conormal lifts, tangency loci, and holomorphic "
                    "extension of boundary data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="group", required=True)

    disc_sub = _group(sub, "disc", "single-disc operations")
    p = disc_sub.add_parser("solve", help="solve a stationary disc")
    p.add_argument("--domain1", "--domain", dest="domain1", required=True)
    p.add_argument("--z", required=True, help="center point, e.g. '0.3,0.1j'")
    p.add_argument("--v", help="direction (center-direction solve)")
    p.add_argument("--w", help="second point (two-point solve)")
    _add_common(p, cmd_disc_solve)
    p = disc_sub.add_parser("lift", help="solve a disc and report its lift")
    p.add_argument("--domain1", "--domain", dest="domain1", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--v", required=True)
    _add_common(p, cmd_disc_lift)
    p = disc_sub.add_parser("probe", help="extremality probe")
    p.add_argument("--domain1", "--domain", dest="domain1", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--trials", type=int, default=100)
    _add_common(p, cmd_disc_probe)

    geo_sub = _group(sub, "geodesic", "Kobayashi geometry")
    p = geo_sub.add_parser("distance", help="Kobayashi distance of two points")
    p.add_argument("--domain1", "--domain", dest="domain1", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--w", required=True)
    _add_common(p, cmd_geodesic_distance)

    rie_sub = _group(sub, "riemann", "the Lempert Riemann map")
    p = rie_sub.add_parser("psi", help="evaluate Psi_z(w) (or its inverse)")
    p.add_argument("--domain1", "--domain", dest="domain1", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--w", help="argument of Psi_z")
    p.add_argument("--v", help="argument of the inverse map")
    p.add_argument("--inverse", action="store_true")
    _add_common(p, cmd_riemann_psi)

    tan_sub = _group(sub, "tangency", "tangency locus operations")
    p = tan_sub.add_parser("trace", help="trace the tangency locus")
    p.add_argument("--domain1", required=True)
    p.add_argument("--domain2", required=True)
    p.add_argument("--z-o", dest="z_o", required=True)
    p.add_argument("--steps", type=int, default=24)
    p.add_argument("--csv", help="write locus samples as CSV")
    _add_common(p, cmd_tangency_trace)
    p = tan_sub.add_parser("pi", help="sample projectivized lift residues")
    p.add_argument("--domain1", required=True)
    p.add_argument("--domain2", required=True)
    p.add_argument("--z-o", dest="z_o", required=True)
    p.add_argument("--count", type=int, default=8)
    _add_common(p, cmd_tangency_pi)

    ext_sub = _group(sub, "extension", "holomorphic extension checks")
    p = ext_sub.add_parser("verify", help="per-point consistency check")
    p.add_argument("--domain1", required=True)
    p.add_argument("--domain2", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--discs", type=int, default=8)
    _add_common(p, cmd_extension_verify)
    p = ext_sub.add_parser("reconstruct", help="field reconstruction")
    p.add_argument("--domain1", required=True)
    p.add_argument("--domain2", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--points-file", help="JSON [[re,im],...] per point")
    p.add_argument("--sample", type=int, default=16,
                   help="number of shell points to sample")
    p.add_argument("--discs", type=int, default=8)
    p.add_argument("--csv", help="write (point, value, spread) rows as CSV")
    _add_common(p, cmd_extension_reconstruct)

    p = sub.add_parser("morera", help="Morera integrals along one disc")
    p.add_argument("--domain1", "--domain", dest="domain1", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--v", required=True)
    _add_common(p, cmd_morera)

    rep_sub = _group(sub, "repro", "reproduce reference experiments")
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
    args = build_parser().parse_args(argv)
    _use_one_blas_thread()
    try:
        _check_writable(args)
        _report(args, args.func(args))
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SolverDivergence as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
