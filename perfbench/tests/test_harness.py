"""Tests of the benchmark harness itself (not of sectsum).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, run, tracing  # noqa: E402
from perfbench.tracing import END, NAME, PARENT, START  # noqa: E402
from perfbench.workloads import WORKLOADS, DocClass  # noqa: E402

assert run.use_checkout_sources()
import sectsum.cli  # noqa: E402,F401  (loads every sectsum module)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload):
    """Same stages and model, a handful of the workload's shortest documents."""
    shortest = workload.pool[0].sections
    return dataclasses.replace(
        workload,
        pool=(DocClass(shortest, 6),),
        test=(DocClass(shortest, 3),),
        epochs=1,
    )


def _bindings():
    """Every (owner, attribute) -> object the tracer may replace."""
    names = {attr for _, attr in tracing.FUNCTIONS}
    out = {}
    for mod_name, module in sys.modules.items():
        if mod_name == "sectsum" or mod_name.startswith("sectsum."):
            for attr in names & set(vars(module)):
                out[(mod_name, attr)] = vars(module)[attr]
    model_params = sys.modules["sectsum.encoder"].ModelParams
    for _, _, attr in tracing.METHODS:
        out[("ModelParams", attr)] = vars(model_params)[attr]
    return out


def test_wrappers_restore_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            during = _bindings()
            # rouge_n is bound in several namespaces; each one is wrapped.
            for mod in ("rouge", "oracle", "evaluation", "training", "cli"):
                key = (f"sectsum.{mod}", "rouge_n")
                assert during[key] is not before[key]
                assert during[key].__wrapped__ is before[key]
            assert all(during[k] is not before[k] for k in before)
            raise RuntimeError("restore on error too")
    assert _bindings() == before
    assert all(_bindings()[k] is v for k, v in before.items())


def test_child_spans_nest_and_self_times_sum_to_root(tmp_path):
    workload = _tiny(WORKLOADS["short-docs"])
    record, spans = run.measure(workload, seed=3, seconds=0.01, trace=True,
                                workdir=tmp_path)
    assert not record["failures"]
    spans = spans[0]
    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    assert [spans[i][NAME] for i in roots] == [
        f"cli.{stage}" for stage in run.STAGES
        for _ in range(workload.repeats.get(stage, 1))]
    for span in spans:
        assert span[START] <= span[END]
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            assert parent[START] <= span[START] and span[END] <= parent[END]
    selfs = tracing.self_times(spans)
    assert min(selfs) >= 0.0
    for root in roots:
        subtree, total = {root}, selfs[root]
        for i in range(root + 1, len(spans)):
            if spans[i][PARENT] in subtree:
                subtree.add(i)
                total += selfs[i]
        duration = spans[root][END] - spans[root][START]
        assert total == pytest.approx(duration, rel=1e-9, abs=1e-12)


def test_self_times_subtract_only_covered_time():
    spans = [["a", 0.0, 10.0, -1, "r", {}],
             ["b", 1.0, 3.0, 0, "r", {}],
             ["c", 2.0, 2.5, 1, "r", {}],
             ["d", 5.0, 9.0, 0, "r", {}]]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.5, 0.5, 4.0])


def test_tail_leaves_ten_samples_above():
    value, pct, n = tracing.tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert tracing.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_benchmark_file_matches_harness():
    e2e = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == [tuple(m) for m in layers.PER_LAYER]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run_prints_every_metric(name, trace, tmp_path):
    record, _ = run.measure(_tiny(WORKLOADS[name]), seed=2, seconds=0.01,
                            trace=trace, workdir=tmp_path)
    assert record["failures"] == []
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        run.print_record(record)
    lines = printed.getvalue().splitlines()
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(record["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        assert any(line.startswith(f"{metric['name']} = ") and
                   line.split()[3] == metric["unit"] for line in lines), metric
    for name in run.INFORMATIONAL if not trace else ("failed_frac",):
        assert any(line.startswith(f"{name} = ") for line in lines)
    assert set(record["digests"]) == {"labeled_corpus", "best_checkpoint", "predictions"}
