"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/tests

They run the smallest workload, l-reps, for one pass at a time (about half
a minute in all).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "l-reps"


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _result(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", WORKLOAD,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_is_printed_with_its_unit():
    spec = _spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())


def test_wrong_reference_answer_raises_fail_ratio(tmp_path, monkeypatch):
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    task = sorted(reference[WORKLOAD])[0]
    reference[WORKLOAD][task]["nerve"]["gens"][0] += 1
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", str(wrong))
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    result = run.run(WORKLOAD, seed=1, seconds=1, trace=False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_seeds_change_order_but_not_answers():
    a = workloads.run_pass(WORKLOAD, seed=1, traced=False)
    b = workloads.run_pass(WORKLOAD, seed=2, traced=False)
    assert a["order"] != b["order"]
    assert sorted(a["order"]) == sorted(b["order"])
    assert a["outputs"] == b["outputs"]


def test_trace_self_time_never_exceeds_wall_time():
    p = workloads.run_pass(WORKLOAD, seed=1, traced=True)
    spans = p["spans"]
    selfs = workloads.self_times(spans)
    for (name, start, end, parent, task), s in zip(spans, selfs):
        assert 0 <= s <= end - start
        assert (parent is None) == (name == "task")
        if parent is not None:
            assert spans[parent][4] == task
    assert sum(selfs) <= p["wall_raw_s"]
    layer = sum(s for span, s in zip(spans, selfs) if span[0] in workloads.SPANS)
    assert layer / p["wall_raw_s"] >= 0.9


def test_reference_holds_the_known_nerve_counts():
    with open(run.REFERENCE) as fh:
        nerve = json.load(fh)["nerve-b5"]
    assert nerve["nerve"]["nerve"]["gens"] == [3, 15, 102, 829, 7447, 72177]
    for n, raw in ((4, 11438), (5, 118800)):
        assert nerve[f"fill{n}"] == {"boundaries": raw, "unique": raw}
