"""Self-tests of the benchmark harness: seeded inputs are reproducible across
interpreters, and tracing changes no output.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _inputs_in_fresh_interpreter(name, seed, hashseed):
    code = ("import json, workloads\n"
            f"print(json.dumps(workloads.inputs_json({name!r}, {seed})))\n")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{HERE}",
               PYTHONHASHSEED=str(hashseed))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    first = _inputs_in_fresh_interpreter(name, 17, hashseed=1)
    assert first == _inputs_in_fresh_interpreter(name, 17, hashseed=2)
    assert first == workloads.inputs_json(name, 17)
    assert first != workloads.inputs_json(name, 18)


# small slices of each workload, so a traced and an untraced pass stay cheap
SLICES = {
    "sweep": [("rr-1", 60), ("v-closed-1", 40), ("lebesgue-param", 30),
              ("exam4-1-split", 60)],
    "hunt": [(workloads.Fraction(-3, 2), workloads.Fraction(0)),
             (workloads.Fraction(1, 2), workloads.Fraction(-2))],
    "modular": workloads.modular_items([0.1 + 1.1j]),
    "ct": [(1, 0)],
}
LAYER = {"sweep": "registry.lhs.s", "hunt": "recognizer.profile.calls",
         "modular": "modular.check.calls", "ct": "zlaurent.ct.calls"}


def _pass(work, items, tr=None):
    workloads.clear_caches()
    if tr is not None:
        tr.install()
    try:
        res = workloads.run_ops(work.op, items)
    finally:
        if tr is not None:
            tr.uninstall()
    work.check(res)
    return res


@pytest.mark.parametrize("name", NAMES)
def test_tracing_changes_no_output(name):
    work = workloads.WORKLOADS[name]
    items = SLICES[name]
    plain = _pass(work, items)
    tr = tracer.Tracer()
    traced = _pass(work, items, tr)
    assert plain.failures == [] and traced.failures == []
    assert plain.digest == traced.digest
    assert tracer.leftover_wrappers() == []
    assert tr.layer_metrics()[LAYER[name]] > 0


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda: sum(range(100000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    incl, self_s, calls = tr.totals()
    assert calls == {"outer": 1, "inner": 3}
    assert self_s["inner"] == pytest.approx(incl["inner"])
    assert self_s["outer"] == pytest.approx(incl["outer"] - incl["inner"])
    assert 0 < self_s["outer"] < incl["inner"]


def test_hd_quantile():
    import run
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert run.hd_quantile(xs, 0.5) == pytest.approx(3.0)
    assert 3.0 < run.hd_quantile(xs, 0.8) < 5.0
    assert run.hd_quantile([7.0], 0.8) == pytest.approx(7.0)
