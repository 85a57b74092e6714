"""The geodisc seams the traced run wraps, and the per-layer metrics
computed from its spans.

A layer is a geodisc module.  Every count metric is exact and repeats
for the same seed; every ``.s`` metric is inclusive wall time and every
``.self_s`` subtracts child spans.  All metrics cover the ops of the
traced batch only, except ``domains.certify.s``, which covers one
traced set-up.
"""

from __future__ import annotations

import math

from tracer import NO_PARENT, Seam, child_index, self_time


def _points(args):
    """Number of points in a (..., n) array argument (1 for one point)."""
    shape = getattr(args[0], "shape", ())
    return float(math.prod(shape[:-1])) if len(shape) > 1 else 1.0


def _taus(args):
    """Number of disc parameters passed to AnalyticDisc.__call__/derivative
    (args[0] is the disc)."""
    return float(getattr(args[1], "size", 1))


SEAMS = (
    Seam("extension.consistency_check", "geodisc.extension", "consistency_check"),
    Seam("extension.trace_locus", "geodisc.extension", "trace_locus",
         result_value=lambda locus: float(len(locus.points))),
    Seam("extension.restrict", "geodisc.extension", "restrict"),
    Seam("circle.cauchy_extend", "geodisc.extension", "cauchy_extend"),
    Seam("circle.analyze", "geodisc.extension", "analyze"),
    Seam("circle.analyze", "geodisc.lifts", "analyze"),
    Seam("tangency.seed_solve", "geodisc.tangency", "solve_tangent_disc"),
    Seam("tangency.ranked_seeds", "geodisc.tangency", "_ranked_seeds"),
    Seam("tangency.order_constant", "geodisc.tangency", "tangency_order_constant"),
    Seam("tangency.jacobian", "geodisc.tangency", "_TangencySystem.jacobian"),
    Seam("tangency.correct", "geodisc.tangency", "_TangencySystem.correct"),
    Seam("discs.solve_cd", "geodisc.tangency", "_solve_cd_raw"),
    Seam("discs.solve_cd", "geodisc.lempert", "_solve_cd_raw"),
    Seam("discs.solve_cd", "geodisc.discs", "_solve_cd_raw"),
    Seam("discs.ball_geodesic", "geodisc.discs", "ball_geodesic"),
    Seam("discs.system_build", "geodisc.discs", "_CenterDirectionSystem.__init__"),
    Seam("discs.gn_solve", "geodisc.discs", "_CenterDirectionSystem.gauss_newton"),
    Seam("discs.gn_residual", "geodisc.discs", "_CenterDirectionSystem.residual"),
    Seam("discs.gn_jacobian", "geodisc.discs", "_CenterDirectionSystem.jacobian"),
    Seam("discs.gn_ls_step", "geodisc.discs", "_CenterDirectionSystem._ls_step"),
    Seam("discs.disc_eval", "geodisc.discs", "AnalyticDisc.__call__",
         arg_value=_taus),
    Seam("discs.disc_eval", "geodisc.discs", "AnalyticDisc.derivative",
         arg_value=_taus),
    Seam("discs.injectivity_gap", "geodisc.discs", "AnalyticDisc.injectivity_gap"),
    Seam("discs.two_point", "geodisc.lempert", "solve_two_point"),
    Seam("domains.boundary_point", "geodisc.domains", "ConvexDomain.boundary_point"),
    Seam("domains.certify", "geodisc.domains", "certify"),
    Seam("lifts.lift_from_disc", "geodisc.lifts", "lift_from_disc"),
    Seam("lempert.psi", "geodisc.lempert", "psi"),
    Seam("lempert.psi_inverse", "geodisc.lempert", "psi_inverse"),
)

#: span name -> ConvexDomain field wrapped on the benchmark's own domains
DOMAIN_FIELDS = {"domains.rho": "rho", "domains.grad": "grad",
                 "domains.hess": "hess_complex"}


def wrap_domain(tracer, domain):
    for span, field in DOMAIN_FIELDS.items():
        fn = getattr(domain, field, None)
        if fn is None:
            tracer.missing.add(span)
            continue
        tracer.patch(domain, field, tracer.wrap(span, fn, arg_value=_points))


class SpanTable:
    """Aggregates over the spans of a set of ops."""

    def __init__(self, tracer, ops):
        self.tracer = tracer
        self.label = [tracer.names[k] for k in tracer.name]
        self.by_name: dict[str, list[int]] = {}
        for i, op in enumerate(tracer.op):
            if op in ops:
                self.by_name.setdefault(self.label[i], []).append(i)
        self._children = None

    def _spans(self, name, parent=None):
        spans = self.by_name.get(name, [])
        if parent is None:
            return spans
        t, label = self.tracer, self.label
        return [i for i in spans
                if t.parent[i] != NO_PARENT and label[t.parent[i]] == parent]

    def calls(self, name, parent=None):
        return float(len(self._spans(name, parent)))

    def seconds(self, name):
        t = self.tracer
        return sum(t.end[i] - t.start[i] for i in self._spans(name))

    def self_seconds(self, name):
        if self._children is None:
            self._children = child_index(self.tracer)
        return sum(self_time(self.tracer, i, self._children)
                   for i in self._spans(name))

    def failed(self, name):
        return float(sum(self.tracer.failed[i] for i in self._spans(name)))

    def value(self, name):
        return sum(self.tracer.value[i] for i in self._spans(name))

    def calls_under(self, names, ancestors):
        """Spans named in ``names`` with an ancestor named in ``ancestors``."""
        t, label = self.tracer, self.label
        count = 0
        for i in (i for name in names for i in self._spans(name)):
            p = t.parent[i]
            while p != NO_PARENT and label[p] not in ancestors:
                p = t.parent[p]
            count += p != NO_PARENT
        return float(count)


def _ratio(num, den):
    return num / den if den else 0.0


TANGENCY_SPANS = ("extension.trace_locus", "tangency.seed_solve",
                  "tangency.correct", "tangency.jacobian")


def _disc_solves_per_point(tab):
    solves = tab.calls_under(("discs.gn_solve", "discs.ball_geodesic"),
                             TANGENCY_SPANS)
    return _ratio(solves, tab.value("extension.trace_locus"))


def _line_search_trials(tab):
    trials = tab.calls("discs.gn_residual", parent="discs.gn_solve") \
        - tab.calls("discs.gn_solve")
    return _ratio(trials, tab.calls("discs.gn_jacobian", parent="discs.gn_solve"))


# (name, unit, better, spans it needs, value from the batch table);
# ``domains.certify.s`` reads the set-up table instead
PER_LAYER = [
    ("tangency.jacobian.calls", "count", "lower", ("tangency.jacobian",),
     lambda t: t.calls("tangency.jacobian")),
    ("tangency.jacobian.s", "s", "lower", ("tangency.jacobian",),
     lambda t: t.seconds("tangency.jacobian")),
    ("tangency.jacobian.self_s", "s", "lower", ("tangency.jacobian",),
     lambda t: t.self_seconds("tangency.jacobian")),
    ("tangency.correct.calls", "count", "lower", ("tangency.correct",),
     lambda t: t.calls("tangency.correct")),
    ("tangency.correct.s", "s", "lower", ("tangency.correct",),
     lambda t: t.seconds("tangency.correct")),
    ("tangency.disc_solves_per_point", "count", "lower",
     ("discs.gn_solve", "discs.ball_geodesic") + TANGENCY_SPANS,
     _disc_solves_per_point),
    ("tangency.locus_points", "count", "higher", ("extension.trace_locus",),
     lambda t: t.value("extension.trace_locus")),
    ("tangency.seed_attempts", "count", "lower", ("tangency.seed_solve",),
     lambda t: t.calls("tangency.seed_solve")),
    ("tangency.seed_success_ratio", "1", "higher", ("tangency.seed_solve",),
     lambda t: _ratio(t.calls("tangency.seed_solve")
                      - t.failed("tangency.seed_solve"),
                      t.calls("tangency.seed_solve"))),
    ("tangency.ranked_seeds.s", "s", "lower", ("tangency.ranked_seeds",),
     lambda t: t.seconds("tangency.ranked_seeds")),
    ("tangency.order_constant.calls", "count", "lower",
     ("tangency.order_constant",),
     lambda t: t.calls("tangency.order_constant")),
    ("tangency.order_constant.s", "s", "lower", ("tangency.order_constant",),
     lambda t: t.seconds("tangency.order_constant")),
    ("discs.gn_solve.calls", "count", "lower", ("discs.gn_solve",),
     lambda t: t.calls("discs.gn_solve")),
    ("discs.gn_solve.s", "s", "lower", ("discs.gn_solve",),
     lambda t: t.seconds("discs.gn_solve")),
    ("discs.gn_solve.failed", "count", "lower", ("discs.gn_solve",),
     lambda t: t.failed("discs.gn_solve")),
    ("discs.gn_iterations", "count", "lower",
     ("discs.gn_solve", "discs.gn_jacobian"),
     lambda t: t.calls("discs.gn_jacobian", parent="discs.gn_solve")),
    ("discs.gn_iterations_per_solve", "1", "lower",
     ("discs.gn_solve", "discs.gn_jacobian"),
     lambda t: _ratio(t.calls("discs.gn_jacobian", parent="discs.gn_solve"),
                      t.calls("discs.gn_solve"))),
    ("discs.gn_residual.calls", "count", "lower", ("discs.gn_residual",),
     lambda t: t.calls("discs.gn_residual")),
    ("discs.gn_residual.s", "s", "lower", ("discs.gn_residual",),
     lambda t: t.seconds("discs.gn_residual")),
    ("discs.line_search_trials_per_iteration", "1", "lower",
     ("discs.gn_solve", "discs.gn_residual", "discs.gn_jacobian"),
     _line_search_trials),
    ("discs.gn_jacobian.s", "s", "lower", ("discs.gn_jacobian",),
     lambda t: t.seconds("discs.gn_jacobian")),
    ("discs.gn_ls_step.s", "s", "lower", ("discs.gn_ls_step",),
     lambda t: t.seconds("discs.gn_ls_step")),
    ("discs.system_build.calls", "count", "lower", ("discs.system_build",),
     lambda t: t.calls("discs.system_build")),
    ("discs.system_build.s", "s", "lower", ("discs.system_build",),
     lambda t: t.seconds("discs.system_build")),
    ("discs.ball_geodesic.calls", "count", "lower", ("discs.ball_geodesic",),
     lambda t: t.calls("discs.ball_geodesic")),
    ("discs.ball_geodesic.s", "s", "lower", ("discs.ball_geodesic",),
     lambda t: t.seconds("discs.ball_geodesic")),
    ("discs.disc_eval.calls", "count", "lower", ("discs.disc_eval",),
     lambda t: t.calls("discs.disc_eval")),
    ("discs.disc_eval.points", "count", "lower", ("discs.disc_eval",),
     lambda t: t.value("discs.disc_eval")),
    ("discs.disc_eval.s", "s", "lower", ("discs.disc_eval",),
     lambda t: t.seconds("discs.disc_eval")),
    ("discs.injectivity_gap.s", "s", "lower", ("discs.injectivity_gap",),
     lambda t: t.seconds("discs.injectivity_gap")),
    ("discs.two_point.calls", "count", "lower", ("discs.two_point",),
     lambda t: t.calls("discs.two_point")),
    ("discs.two_point.inner_solves", "count", "lower",
     ("discs.two_point", "discs.solve_cd"),
     lambda t: t.calls("discs.solve_cd", parent="discs.two_point")),
    ("discs.two_point.s", "s", "lower", ("discs.two_point",),
     lambda t: t.seconds("discs.two_point")),
    ("domains.boundary_point.calls", "count", "lower",
     ("domains.boundary_point",),
     lambda t: t.calls("domains.boundary_point")),
    ("domains.boundary_point.s", "s", "lower", ("domains.boundary_point",),
     lambda t: t.seconds("domains.boundary_point")),
    ("domains.rho.points", "count", "lower", ("domains.rho",),
     lambda t: t.value("domains.rho")),
    ("domains.rho.s", "s", "lower", ("domains.rho",),
     lambda t: t.seconds("domains.rho")),
    ("domains.grad.points", "count", "lower", ("domains.grad",),
     lambda t: t.value("domains.grad")),
    ("domains.grad.s", "s", "lower", ("domains.grad",),
     lambda t: t.seconds("domains.grad")),
    ("domains.hess.points", "count", "lower", ("domains.hess",),
     lambda t: t.value("domains.hess")),
    ("domains.hess.s", "s", "lower", ("domains.hess",),
     lambda t: t.seconds("domains.hess")),
    ("domains.certify.s", "s", "lower", ("domains.certify",), None),
    ("lifts.lift_from_disc.calls", "count", "lower", ("lifts.lift_from_disc",),
     lambda t: t.calls("lifts.lift_from_disc")),
    ("lifts.lift_from_disc.s", "s", "lower", ("lifts.lift_from_disc",),
     lambda t: t.seconds("lifts.lift_from_disc")),
    ("lempert.psi.calls", "count", "lower", ("lempert.psi",),
     lambda t: t.calls("lempert.psi")),
    ("lempert.psi.s", "s", "lower", ("lempert.psi",),
     lambda t: t.seconds("lempert.psi")),
    ("lempert.psi_inverse.calls", "count", "lower", ("lempert.psi_inverse",),
     lambda t: t.calls("lempert.psi_inverse")),
    ("lempert.psi_inverse.s", "s", "lower", ("lempert.psi_inverse",),
     lambda t: t.seconds("lempert.psi_inverse")),
    ("circle.analyze.calls", "count", "lower", ("circle.analyze",),
     lambda t: t.calls("circle.analyze")),
    ("circle.analyze.s", "s", "lower", ("circle.analyze",),
     lambda t: t.seconds("circle.analyze")),
    ("circle.cauchy_extend.calls", "count", "lower", ("circle.cauchy_extend",),
     lambda t: t.calls("circle.cauchy_extend")),
    ("circle.cauchy_extend.s", "s", "lower", ("circle.cauchy_extend",),
     lambda t: t.seconds("circle.cauchy_extend")),
    ("extension.consistency_check.calls", "count", "lower",
     ("extension.consistency_check",),
     lambda t: t.calls("extension.consistency_check")),
    ("extension.consistency_check.s", "s", "lower",
     ("extension.consistency_check",),
     lambda t: t.seconds("extension.consistency_check")),
    ("extension.trace_locus.s", "s", "lower", ("extension.trace_locus",),
     lambda t: t.seconds("extension.trace_locus")),
    ("extension.restrict.calls", "count", "lower", ("extension.restrict",),
     lambda t: t.calls("extension.restrict")),
    ("extension.restrict.s", "s", "lower", ("extension.restrict",),
     lambda t: t.seconds("extension.restrict")),
]


def per_layer_metrics(tracer, batch_ops, setup_ops):
    """(metrics, missing): every PER_LAYER value whose spans all resolved,
    and the names of those that could not be measured."""
    batch = SpanTable(tracer, batch_ops)
    setup = SpanTable(tracer, setup_ops)
    metrics, missing = {}, []
    for name, unit, _, needs, fn in PER_LAYER:
        if any(span in tracer.missing for span in needs):
            missing.append(name)
            continue
        value = setup.seconds("domains.certify") if fn is None else fn(batch)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, missing
