"""theta2kit benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload for about ``--seconds`` seconds as a closed loop with one
client: passes run one after another, each in a fresh interpreter
(``workloads.py``), so every pass starts cold.  Passes start until
``--seconds`` have gone by, and none is cut short.  Every task answer is
checked against ``reference.json``.

Times are in reference seconds (see "machine speed" below and README.md).
With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` passes alternate untraced and traced and the
last line holds the per-layer metrics from the traced ones.  The full
record, spans included, is written to ``perfbench/out/``.  See README.md.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workloads.py")
REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from workloads import SETUP, SPANS, self_times  # noqa: E402

SETUP_SAMPLES = 9  # set-up-only interpreters per run, besides the passes
DEADLINE_S = 170  # every child is stopped before a run takes 180 s


# ---------------------------------------------------------------------------
# machine speed
#
# On the 2-core VM this was built on, the speed of this kind of Python work
# drifts by up to 1.9x, on time scales from a second to minutes, and CPU
# time drifts with it: raw pass times spread by 12-25% (quartile distance
# over median).  So while children run, a thread of this process times a
# fixed stdlib-only kernel every SAMPLE_EVERY_S, and each child's times are
# scaled by the mean reading over the same interval into "reference
# seconds": seconds on a machine where the kernel takes CAL_REF_S.  The
# thread and the children are pinned to one CPU and the kernel is timed in
# thread CPU time: the two cores' speeds can differ, and a reading taken on
# the other core beside a busy child depends on how the host places them.
# The kernel does not touch theta2kit, so a change to the library moves
# reference seconds as it moves raw ones.

CAL_REF_S = 0.0075
SAMPLE_EVERY_S = 0.1
CPU = min(os.sched_getaffinity(0))
NEAREST = 5  # readings used for an interval too short to hold that many

_KEYS = [(str(i % 97), i % 13, "x") for i in range(1261)]
_WORDS = [f"{a}:{b}" for a, b, _ in _KEYS]


def kernel():
    """Fixed work of the library's kind (tuple keys, dicts, sorting, small
    frozensets) that allocates little, so the heap's state does not matter."""
    counts = {}
    for i in range(20000):
        key = _KEYS[i % 1261]
        counts[key] = counts.get(key, 0) + 1
    sorted(_WORDS[i % 7::3] for i in range(40))
    return sum(len(frozenset((i % 50, i % 7, i % 3))) for i in range(8000))


class SpeedSampler:
    """Kernel readings ``(monotonic time, seconds)`` taken on a thread."""

    def __init__(self):
        self.readings = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _sample(self):
        os.sched_setaffinity(0, {CPU})  # this thread only
        while not self._stop.is_set():
            t, c = time.monotonic(), time.thread_time()
            kernel()
            c, t = time.thread_time() - c, (t + time.monotonic()) / 2
            self.readings.append((t, c))
            self._stop.wait(SAMPLE_EVERY_S)

    def scale(self, start, end):
        """Factor from seconds spent in [start, end] to reference seconds."""
        inside = [d for t, d in self.readings if start <= t <= end]
        if len(inside) < NEAREST:
            mid = (start + end) / 2
            near = sorted(self.readings, key=lambda r: abs(r[0] - mid))[:NEAREST]
            inside = [d for _, d in near]
        return CAL_REF_S / statistics.mean(inside)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def environment():
    """What a result depends on outside the code: recorded with every run."""
    with open("/proc/loadavg") as fh:
        loadavg = fh.read().split()[:3]
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "loadavg": [float(x) for x in loadavg],
    }


def git_commit(root):
    """The checked-out commit read from ``.git``, or "unknown" outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def child(workload, seed, traced, deadline, setup_only=False):
    """Run one pass (or only its set-up) in a fresh interpreter.

    ``seed`` orders the pass's tasks and also seeds str hashing, which
    the library's search order follows: the same seed repeats a pass.
    """
    cmd = [sys.executable, WORKER, workload, str(seed), "1" if traced else "0", str(CPU)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"{workload} pass did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failures(outputs, reference):
    """Failed checks, one per reference task: the tasks whose answers differ
    from the reference in any way, that raised, or that are missing."""
    return [task for task, want in reference.items() if outputs.get(task) != want]


def layer_metrics(traced, untraced_walls):
    """Per-layer metrics from the traced passes (see README.md)."""
    shares = {name: [] for name in SPANS}
    coverage = []
    for p in traced:
        selfs = {name: 0.0 for name in SPANS}
        for span, s in zip(p["spans"], self_times(p["spans"])):
            if span[0] in selfs:
                selfs[span[0]] += s
        for name in SPANS:
            shares[name].append(selfs[name] / p["wall_raw_s"])
        coverage.append(sum(selfs.values()) / p["wall_raw_s"])
    first = traced[0]
    calls = {name: 0 for name in SPANS}
    busy = {name: 0.0 for name in SPANS}
    for name, start, end, _, _ in first["spans"]:
        if name in calls:
            calls[name] += 1
            busy[name] += end - start
    outs = list(first["outputs"].values())

    def total(key):
        return sum(o.get(key, 0) for o in outs)

    gens = [0] * 6
    for o in outs:
        for d, c in enumerate(o.get("nerve", {}).get("gens", [])):
            gens[d] += c
    nerve_s = busy["nerves.duskin_nerve"] + busy["nerves.rs_nerve"]
    boundaries = total("boundaries")
    isos = sum(1 for o in outs if o.get("iso"))
    lmap_gens = sum(sum(o[k]["gens"]) for o in outs for k in ("source", "target") if k in o)
    wall = statistics.median(p["wall_s"] for p in traced)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in SPANS:
        put(f"{name}_share", statistics.median(shares[name]), "ratio")
    for name in ("twocat.theta2_object", "twocat.enumerate_two_functors",
                 "nerves.rs_nerve", "msset.find_iso", "theta.apply_L",
                 "theta.apply_L_map"):
        put(f"{name}_calls", calls[name], "count")
    put("twocat.functors_out", total("functors"), "count")
    for d, c in enumerate(gens):
        put(f"nerves.gens.d{d}", c, "count")
    put("nerves.gens_per_s", sum(gens) / nerve_s if nerve_s else 0.0, "1/s")
    put("nerves.boundaries", boundaries, "count")
    put("nerves.unique_fill_ratio", total("unique") / boundaries if boundaries else 0.0,
        "ratio")
    calls_iso = calls["msset.find_iso"]
    put("msset.iso_found_ratio", isos / calls_iso if calls_iso else 0.0, "ratio")
    put("msset.checks", calls["msset.check"], "count")
    put("theta.lmap_gens", lmap_gens, "count")
    put("trace.wall_s", wall, "s")
    put("trace.overhead_s", wall - statistics.median(untraced_walls), "s")
    put("trace.coverage", statistics.median(coverage), "ratio")
    return m


def run(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    env = environment()
    with open(REFERENCE) as fh:
        reference = json.load(fh)[workload]
    # each child has its own seed, derived from the run's: task order and
    # memory use vary with it, so a run takes the median over several
    seeds = (seed * 1009 + n for n in itertools.count())
    untraced, traced = [], []
    with SpeedSampler() as speed:
        setups = [child(workload, next(seeds), False, deadline, setup_only=True)
                  for _ in range(SETUP_SAMPLES)]
        t0 = time.monotonic()
        # one round is a pass, or with --trace 1 an untraced and a traced pass
        while not untraced or time.monotonic() - t0 < seconds:
            pass_seed = next(seeds)  # a traced pass repeats its untraced partner
            untraced.append(child(workload, pass_seed, False, deadline))
            if trace:
                traced.append(child(workload, pass_seed, True, deadline))
    passes = untraced + traced
    for p in setups + passes:
        p["setup_s"] = p["setup_raw_s"] * speed.scale(*p["setup"])
    for p in passes:
        scale = speed.scale(*p["tasks"])
        p["wall_s"], p["cpu_s"] = p["wall_raw_s"] * scale, p["cpu_raw_s"] * scale
    failed_tasks = [t for p in passes for t in failures(p["outputs"], reference)]
    attempted, failed = len(reference) * len(passes), len(failed_tasks)
    setup_values = [p["setup_s"] for p in setups + passes]
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in untraced), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in untraced), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), "MB"),
        "setup_s": (statistics.median(setup_values), "s"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if trace:
        metrics = layer_metrics(traced, [p["wall_s"] for p in untraced])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env, "elapsed_s": time.monotonic() - start,
        "setup_samples": setup_values,
        "kernel_readings": speed.readings,
        "passes": [{k: v for k, v in p.items() if k not in ("outputs", "order")}
                   for p in untraced],
        "fail_ratio": failed / attempted,
        "failures": sorted(set(failed_tasks)),
        "metrics": metrics,
    }
    if trace:
        record["traced_passes"] = [{"wall_s": p["wall_s"], "spans": p["spans"]}
                                   for p in traced]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print("env " + json.dumps(env))
    raw = statistics.median(p["wall_raw_s"] for p in untraced)
    print(f"{workload}: {len(untraced)} pass(es), raw wall_s {raw:.3f}, fail_ratio"
          f" {failed}/{attempted} = {failed / attempted:g},"
          f" failures {record['failures'][:5]}, record {path}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
