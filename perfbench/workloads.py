"""Workload definitions and one benchmark pass.

A pass imports theta2kit from the checkout's ``src``, builds one workload's
inputs (the set-up), then runs the workload's tasks in an order fixed by
the seed and returns every task's exact answers.  ``run.py`` starts each
pass in a fresh interpreter, so nothing, including the library's nerve
cache, survives from one pass to the next.

Run as a script this module is that child:

    python3 perfbench/workloads.py <workload> <seed> <trace 0|1> <cpu> [--setup-only]

and prints one JSON object on its last line of standard output.
"""

import contextlib
import itertools
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Layer spans: the library functions the tasks call, named <module>.<function>.
# ``msset.check`` groups validate_map and is_mono.
SPANS = (
    "twocat.theta2_object",
    "twocat.enumerate_two_functors",
    "twocat.chain_count",
    "nerves.duskin_nerve",
    "nerves.rs_nerve",
    "nerves.filler_counts",
    "msset.find_iso",
    "msset.check",
    "theta.apply_L",
    "theta.apply_L_map",
)


def import_library():
    """Import theta2kit from this checkout, never from an installed copy."""
    if not os.path.isdir(os.path.join(SRC, "theta2kit")):
        raise FileNotFoundError(f"no theta2kit package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import theta2kit

    if not os.path.abspath(theta2kit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"theta2kit imported from {theta2kit.__file__}")
    from theta2kit import msset, nerves, theta, twocat

    return twocat, msset, nerves, theta


# ---------------------------------------------------------------------------
# tracing


class Untraced:
    """Calls straight through; the recorder used for end-to-end passes."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def task(self, task_id):
        return contextlib.nullcontext()


class Tracer:
    """Keeps one span per task and per library call, in memory.

    A span is ``[name, start, end, parent, task]``: ``parent`` is the index
    of the enclosing task span (None for a task span) and ``task`` the task
    id both share.
    """

    def __init__(self):
        self.spans = []
        self._task = (None, None)  # (index of the open task span, task id)

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            parent, task_id = self._task
            self.spans.append([name, start, time.perf_counter(), parent, task_id])

    @contextlib.contextmanager
    def task(self, task_id):
        index = len(self.spans)
        self.spans.append(["task", time.perf_counter(), None, None, task_id])
        self._task = (index, task_id)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._task = (None, None)


def self_times(spans):
    """Per-span self time: duration minus the part its child spans cover.

    Children of one parent never overlap (tasks call the library one call
    at a time), so their durations add up.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


# ---------------------------------------------------------------------------
# workloads: set-up builds the inputs, each task returns its exact answers


def _shape_grid(T, max_m, max_k):
    shapes = [T.Theta2Shape(0, ())]
    for m in range(1, max_m + 1):
        for ks in itertools.product(range(max_k + 1), repeat=m):
            shapes.append(T.Theta2Shape(m, ks))
    return shapes


def _counts(X):
    return {"gens": list(X.counts()), "marked": list(X.marked_counts())}


def setup_nerve_b5(lib):
    T, M, N, TH = lib
    shape = T.Theta2Shape(2, (2, 2))
    state = {}

    def build(rec):
        D = rec.call("twocat.theta2_object", T.theta2_object, shape)
        X = rec.call("nerves.duskin_nerve", N.duskin_nerve, D, bound=5)
        state["X"] = X
        return {"nerve": _counts(X)}

    def fill(n):
        def task(rec):
            fc = rec.call("nerves.filler_counts", N.filler_counts, state["X"], n)
            unique = sum(1 for _, c in fc if c == 1)
            return {"boundaries": len(fc), "unique": unique}

        return task

    # the nerve is built first; the seed orders the two filler checks
    return [("nerve", build)], [(f"fill{n}", fill(n)) for n in (4, 5)]


def setup_hom_grid(lib):
    T, M, N, TH = lib
    tasks = []

    def cell(shape, i, j):
        def task(rec):
            # both objects are rebuilt for every cell, as d_restriction does
            E = rec.call("twocat.theta2_object", T.theta2_object, shape)
            S = rec.call(
                "twocat.theta2_object", T.theta2_object, T.Theta2Shape(i, (j,) * i)
            )
            fs = rec.call("twocat.enumerate_two_functors", T.enumerate_two_functors, S, E)
            homs = {}
            for x in E.objects:
                for y in E.objects:
                    H = E.hom_at(x, y)
                    homs[(x, y)] = (
                        rec.call("twocat.chain_count", T.chain_count, H, j) if H else 0
                    )
            formula = 0
            for chain in itertools.product(sorted(E.objects), repeat=i + 1):
                term = 1
                for t in range(i):
                    term *= homs[(chain[t], chain[t + 1])]
                formula += term
            out = {"functors": len(fs), "formula": formula}
            if i == 1:
                out["chains"] = sum(
                    rec.call("twocat.chain_count", T.chain_count, H, j)
                    for H in E.hom.values()
                )
            return out

        return task

    # cells with i = 3 or j = 3 are left out: with them a pass takes about 30 s
    for shape in _shape_grid(T, 3, 2):
        for i in range(3):
            for j in range(3):
                tasks.append((f"{shape} {i},{j}", cell(shape, i, j)))
    return [], tasks


L_BOUND = 4


def setup_l_reps(lib):
    T, M, N, TH = lib

    def rep(shape, W):
        def task(rec):
            L = rec.call("theta.apply_L", TH.apply_L, W, bound=L_BOUND)
            D = rec.call("twocat.theta2_object", T.theta2_object, shape)
            R = rec.call("nerves.rs_nerve", N.rs_nerve, D, bound=L_BOUND)
            iso = rec.call("msset.find_iso", M.find_iso, L, R)
            return {"L": _counts(L), "nerve": _counts(R), "iso": iso is not None}

        return task

    # [2|2,2] is left out: its one find_iso takes about 20 s, more than a run
    shapes = [s for s in _shape_grid(T, 2, 2) if s != T.Theta2Shape(2, (2, 2))]
    return [], [(str(s), rep(s, TH.representable(s))) for s in shapes]


def setup_segal_maps(lib):
    T, M, N, TH = lib
    cases = [(f"vertical {k}", TH.vertical_segal(k), T.Theta2Shape(1, (k,)))
             for k in range(4)]
    hs = [(0, ())]
    for m in range(1, 4):
        hs += [(m, ks) for ks in itertools.product(range(2), repeat=m)]
    # [3|1,1,1] is left out: its one L-map takes about 18 s, more than a run
    hs.remove((3, (1, 1, 1)))
    cases += [(f"horizontal {T.Theta2Shape(m, ks)}", TH.horizontal_segal(m, ks),
               T.Theta2Shape(m, ks)) for m, ks in hs]

    def segal(P, shape):
        def task(rec):
            f = rec.call("theta.apply_L_map", TH.apply_L_map, P, bound=L_BOUND)
            valid = rec.call("msset.check", M.validate_map, f).ok
            mono = rec.call("msset.check", M.is_mono, f)
            D = rec.call("twocat.theta2_object", T.theta2_object, shape)
            Y = rec.call("nerves.rs_nerve", N.rs_nerve, D, bound=L_BOUND)
            iso = rec.call("msset.find_iso", M.find_iso, f.target, Y)
            return {"source": _counts(f.source), "target": _counts(f.target),
                    "nerve": _counts(Y), "valid": valid, "mono": mono,
                    "iso": iso is not None}

        return task

    return [], [(name, segal(P, shape)) for name, P, shape in cases]


SETUP = {
    "nerve-b5": setup_nerve_b5,
    "hom-grid": setup_hom_grid,
    "l-reps": setup_l_reps,
    "segal-maps": setup_segal_maps,
}


def task_order(first, rest, seed):
    """The seed permutes task order only; the set of tasks never changes."""
    rest = list(rest)
    random.Random(seed).shuffle(rest)
    return list(first) + rest


# ---------------------------------------------------------------------------
# one pass


def run_pass(workload, seed, traced, setup_only=False):
    """Set up and run one workload pass in this process.

    Returns the set-up and task intervals on the system-wide monotonic
    clock (so that ``run.py`` can match them with its speed readings), the
    task time and its CPU time, the peak resident set size, every task's
    answers (or the error it raised) and, when traced, the spans.
    """
    s0 = time.monotonic()
    lib = import_library()
    first, rest = SETUP[workload](lib)
    tasks = task_order(first, rest, seed)
    s1 = time.monotonic()
    result = {"setup": [s0, s1], "setup_raw_s": s1 - s0}
    if setup_only:
        return result
    rec = Tracer() if traced else Untraced()
    outputs = {}
    cpu0 = time.process_time()
    w0 = time.monotonic()
    for task_id, task in tasks:
        with rec.task(task_id):
            try:
                outputs[task_id] = task(rec)
            except Exception as exc:  # any error is a failed check
                outputs[task_id] = {"error": f"{type(exc).__name__}: {exc}"}
    w1 = time.monotonic()
    result.update(
        tasks=[w0, w1],
        wall_raw_s=w1 - w0,
        cpu_raw_s=time.process_time() - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        outputs=outputs,
        order=[t for t, _ in tasks],
    )
    if traced:
        result["spans"] = rec.spans
    return result


def main(argv):
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    os.sched_setaffinity(0, {int(argv[3])})  # the CPU run.py samples speed on
    result = run_pass(workload, seed, trace, setup_only="--setup-only" in argv)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
