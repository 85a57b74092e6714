"""Interleaved CPU timing of one perfbench workload on two source trees.

    python tools/abtime.py PARENT CHANGE WORKLOAD OPS REPS [SEED]

PARENT and CHANGE are the roots of two geodisc checkouts.  Each tree's
``src/geodisc`` is copied to a package name of its own
(``geodisc_parent``, ``geodisc_change``) in a temporary directory, so
both load into one process, and each tree's ``perfbench/workloads.py``
is loaded against its own copy; nothing else of perfbench is read.
Every rep runs ops 0..OPS-1 of seed SEED (default 1; perfbench holds
seed 90210 out for confirming claims) of WORKLOAD on both trees, one
after the other, the order flipped every rep.  Before the first rep,
untimed, each side builds its context, runs the workload's warm-up op,
and runs ops 0..OPS-1 once through the workload's ``check``; a failed
check exits non-zero naming the side and the op, so no speed ratio is
printed for outputs outside the acceptance tolerances.  The outputs of
that pass are compared op by op across the sides (:func:`difference`):
it prints on how many ops they are bit-identical and, where some
differ, the largest difference and its op.  Then it prints ms/op
by ``time.process_time`` per rep and side, the ratio parent/change, the
median ratio over the reps (above 1 means the change is faster), and in
how many reps the change was faster (ratio above 1; a tie counts for
neither side), the count that a claimed gain needs in nine of ten pairs.
Then, for each op kind (the workload's ``kind(item)``), it prints each
side's median ms/op over the reps and their ratio parent/change: a
change to one kind of op is diluted in the overall ratio by the share of
the other kinds.

Both trees share one process, so host drift between the two sides of a
rep is small; single timed runs of a few seconds drift by several
percent on a shared host.  BLAS is pinned to one thread, as perfbench
pins it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import numbers  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

SIDES = ("parent", "change")


def leaves(output, path="output"):
    """{path: array} of the ndarrays and numbers in an op's ``output``,
    found through tuples, lists and dataclass fields.  A path names
    fields, not types, since each side's types belong to its own copy of
    the package; callables and every other value are skipped."""
    if dataclasses.is_dataclass(output) and not isinstance(output, type):
        parts = ((f".{f.name}", getattr(output, f.name))
                 for f in dataclasses.fields(output))
    elif isinstance(output, (tuple, list)):
        parts = ((f"[{i}]", item) for i, item in enumerate(output))
    elif isinstance(output, (np.ndarray, np.generic, numbers.Number)):
        return {path: np.asarray(output)}
    else:
        return {}
    found = {}
    for name, part in parts:
        found.update(leaves(part, path + name))
    return found


def difference(a, b):
    """None where the outputs a and b are bit-identical in every leaf
    (:func:`leaves`), else the largest absolute difference over their
    leaves: inf where the leaves differ in path, dtype or shape, or where
    one is NaN and the other not."""
    la, lb = leaves(a), leaves(b)
    if la.keys() != lb.keys():
        return float("inf")
    largest = None
    for path, x in la.items():
        y = lb[path]
        if x.dtype != y.dtype or x.shape != y.shape:
            return float("inf")
        if x.tobytes() == y.tobytes():
            continue
        d = np.abs(x.astype(complex) - y.astype(complex))
        d = float(np.max(np.where(np.isnan(d), np.inf, d)))
        largest = d if largest is None else max(largest, d)
    return largest


def load_workloads(root, name, package_dir):
    """perfbench/workloads.py of the tree at ``root``, loaded against a
    copy of its ``src/geodisc`` named ``geodisc_<name>``."""
    package = f"geodisc_{name}"
    shutil.copytree(os.path.join(root, "src", "geodisc"),
                    os.path.join(package_dir, package),
                    ignore=shutil.ignore_patterns("__pycache__"))
    lib = importlib.import_module(package)
    # workloads.py imports ``geodisc`` and its modules by name: point the
    # names at this tree's copy while it loads, then drop them
    aliases = {"geodisc": lib}
    for module in ("circle", "discs", "domains", "extension", "lempert",
                   "lifts"):
        aliases[f"geodisc.{module}"] = importlib.import_module(
            f"{package}.{module}")
    spec = importlib.util.spec_from_file_location(
        f"workloads_{name}", os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # its dataclasses look it up
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        spec.loader.exec_module(workloads)
    finally:
        for key, module in saved.items():
            if module is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = module
    return workloads


def main(argv):
    if len(argv) not in (5, 6):
        sys.exit(__doc__.strip().splitlines()[2].strip())
    parent, change, workload_name = argv[0], argv[1], argv[2]
    ops, reps = int(argv[3]), int(argv[4])
    seed = int(argv[5]) if len(argv) == 6 else 1
    with tempfile.TemporaryDirectory() as package_dir:
        sys.path.insert(0, package_dir)
        runs, outputs = {}, {}
        for name, root in zip(SIDES, (parent, change)):
            workloads = load_workloads(root, name, package_dir)
            workload = workloads.WORKLOADS[workload_name]
            ctx = workload.build()
            workload.run(ctx, workload.warmup_item())
            items = [workload.item(seed, i) for i in range(ops)]
            outputs[name] = []
            for i, item in enumerate(items):
                outputs[name].append(workload.run(ctx, item))
                try:
                    workload.check(ctx, item, outputs[name][-1])
                except workloads.CheckFailed as exc:
                    sys.exit(f"{name} op {i}: check failed: {exc}")
            runs[name] = (workload, ctx, items)
        differences = {i: d for i, d in enumerate(
            map(difference, outputs["parent"], outputs["change"]))
            if d is not None}
        print(f"outputs bit-identical on {ops - len(differences)} of {ops} "
              "ops")
        if differences:
            worst = max(differences, key=differences.get)
            print(f"largest difference {differences[worst]:.3g} at op "
                  f"{worst} ({len(differences)} ops differ)")
        del outputs

        def ms_per_op(name):
            """ms/op over all ops, and by op kind, of one rep of a side."""
            workload, ctx, items = runs[name]
            by_kind = {}
            start = time.process_time()
            for item in items:
                before = time.process_time()
                workload.run(ctx, item)
                by_kind.setdefault(workload.kind(item), []).append(
                    time.process_time() - before)
            total = 1e3 * (time.process_time() - start) / ops
            return total, {kind: 1e3 * sum(t) / len(t)
                           for kind, t in by_kind.items()}

        print(f"{workload_name} seed {seed} ops 0-{ops - 1}, {reps} reps, "
              "ms/op by process_time")
        ratios, kinds = [], {name: {} for name in SIDES}
        for rep in range(reps):
            order = SIDES if rep % 2 == 0 else SIDES[::-1]
            times = {}
            for name in order:
                times[name], by_kind = ms_per_op(name)
                for kind, ms in by_kind.items():
                    kinds[name].setdefault(kind, []).append(ms)
            ratios.append(times["parent"] / times["change"])
            print(f"rep {rep}: parent {times['parent']:.3f}  change "
                  f"{times['change']:.3f}  ratio {ratios[-1]:.4f}"
                  f"  ({order[0]} first)")
        print(f"median ratio parent/change {statistics.median(ratios):.4f}")
        wins = sum(ratio > 1.0 for ratio in ratios)
        print(f"change faster in {wins} of {reps} reps")
        for kind in sorted(kinds["parent"]):
            medians = {name: statistics.median(kinds[name][kind])
                       for name in SIDES}
            print(f"{kind}: median ms/op parent {medians['parent']:.3f}  "
                  f"change {medians['change']:.3f}  ratio "
                  f"{medians['parent'] / medians['change']:.4f}")


if __name__ == "__main__":
    main(sys.argv[1:])
