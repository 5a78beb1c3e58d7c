"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import benchstats  # noqa: E402
import compare  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_covered_merges_overlaps():
    assert spans.covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4
    assert spans.covered([]) == 0


def test_self_time_subtracts_children():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    outer = tr.open("outer")
    clock.t = 1
    a = tr.open("a")
    clock.t = 3
    tr.close(a)
    clock.t = 4
    b = tr.open("b")
    clock.t = 4.5
    inner = tr.open("a")
    clock.t = 5
    tr.close(inner)
    tr.close(b)
    clock.t = 10
    tr.close(outer)
    s = tr.summary("setup")
    assert s["outer"]["total"] == 10
    assert s["outer"]["self"] == 10 - 2 - 1
    assert s["outer"]["child"] == {"a": 2, "b": 1}
    assert s["b"]["self"] == 0.5
    assert s["a"]["calls"] == 2 and s["a"]["total"] == 2.5
    assert tr.top_level_time("setup") == 10


def test_phases_are_kept_apart():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    with tr.span("x"):
        clock.t = 1
    tr.phase = "iter"
    since = len(tr.spans)
    with tr.span("x"):
        clock.t = 4
    assert tr.summary("setup")["x"]["total"] == 1
    assert tr.summary("iter")["x"]["total"] == 3
    assert tr.top_level_time("iter", since) == 3


def test_close_out_of_order_is_refused():
    tr = spans.Tracer(FakeClock())
    a = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(a)


def test_layer_metrics_average_iterations_and_derive_train_time():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    with tr.span("datapipe.open_dataset"):
        clock.t = 2
    tr.phase = "iter"
    for _ in range(2):
        start = clock.t
        with tr.span("finetune.finetune"):
            with tr.span("finetune.task_arrays"):
                clock.t = start + 1
            with tr.span("finetune.validation"):
                clock.t = start + 3
            clock.t = start + 7
        tr.count("nncore.tape.closures_built", 4)
        tr.count("nncore.tape.closures_run", 1)
    m = spans.layer_metrics(tr, iterations=2)
    assert m["datapipe.open_dataset.s"] == 2
    assert m["finetune.task_arrays.s"] == 1
    assert m["finetune.validation_s"] == 2
    assert m["finetune.train_s"] == 7 - 1 - 2
    assert m["nncore.tape.closures_built"] == 4
    assert m["nncore.tape.used_ratio"] == 0.25
    assert m["pretrain.dropped_ratio"] == 0.0
    assert set(m) == set(spans.LAYER_METRICS) - {
        "trace.overhead_ratio", "trace.untraced_s", "datapipe.load_pairs.alloc_peak_mb"}


def _tiny_step():
    from mimoclr.nncore import tensor as T
    from mimoclr.nncore.layers import Encoder, EncoderConfig
    from mimoclr import pretrain
    cfg = EncoderConfig(in_height=8, in_width=8, widths=(2, 3, 4), embed_dim=5)
    rng = np.random.default_rng(0)
    enc = Encoder.init(cfg, rng)
    x = rng.standard_normal((4, 2, 8, 8)).astype(np.float32)
    z = enc.forward(T.Tensor(x))
    w = enc.forward(T.Tensor(x[::-1].copy()))
    loss = pretrain.contrastive_loss(z, w, 0.5)   # spanned where pretrain looks it up
    loss.backward()
    return float(loss.data), {k: p.grad.copy() for k, p in enc.params.items()}


def test_instrumentation_times_ops_without_changing_results():
    from mimoclr.nncore import tensor as T
    original_conv = T.conv2d
    original_backward = T.Tensor.backward
    plain_loss, plain_grads = _tiny_step()

    tr = spans.Tracer()
    tr.phase = "iter"
    inst = spans.Instrumentation(tr).install()
    try:
        loss, grads = _tiny_step()
    finally:
        inst.uninstall()
    assert T.conv2d is original_conv and T.Tensor.backward is original_backward
    assert inst.missing == []
    assert loss == plain_loss
    assert all(np.array_equal(grads[k], plain_grads[k]) for k in grads)

    s = tr.summary("iter")
    for stage in (1, 2, 3):
        assert s[f"nncore.conv2d.stage{stage}.fwd"]["calls"] == 2
        assert s[f"nncore.conv2d.stage{stage}.bwd"]["calls"] == 2
        assert s[f"nncore.avg_pool2d.stage{stage}.fwd"]["calls"] == 2
    assert "nncore.conv2d.stage4.fwd" not in s
    assert s["nncore.backward"]["calls"] == 1
    assert s["nncore.contrastive_loss"]["calls"] == 1
    built = tr.counts["iter"]["nncore.tape.closures_built"]
    assert 0 < tr.counts["iter"]["nncore.tape.closures_run"] <= built
    # stage 1 input is data (weight grad only); stages 2, 3 also need the input grad
    shapes = [((4, 2, 8, 8), (2, 2, 3, 3)), ((4, 2, 4, 4), (3, 2, 3, 3)), ((4, 3, 2, 2), (4, 3, 3, 3))]
    fwd = [2.0 * x[0] * w[0] * x[1] * 9 * x[2] * x[3] for x, w in shapes]
    want = 2 * (sum(fwd) + fwd[0] + 2 * fwd[1] + 2 * fwd[2])
    assert tr.counts["iter"]["nncore.conv2d.flop"] == want


def test_paused_tracer_records_nothing():
    from mimoclr.nncore import tensor as T
    tr = spans.Tracer()
    inst = spans.Instrumentation(tr).install()
    try:
        tr.paused += 1
        T.relu(T.Tensor(np.ones(3), requires_grad=True))
    finally:
        inst.uninstall()
    assert tr.spans == [] and not tr.counts["setup"]


def test_median_quartiles_and_tail_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert benchstats.median(values) == 3.0
    q1, q2, q3 = benchstats.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert benchstats.relative_spread(values) == pytest.approx((q3 - q1) / 3.0)
    assert benchstats.percentile(values, 50) == 3.0
    assert benchstats.percentile(values, 100) == 5.0
    assert benchstats.tail_percentile(list(range(20))) is None
    p, v = benchstats.tail_percentile([float(i) for i in range(1, 101)])
    assert p == 90.0 and v == 90.0
    p, v = benchstats.tail_percentile([float(i) for i in range(1, 1001)])
    assert p == 99.0 and v == 990.0
    summary = benchstats.timing_summary([2.0, 1.0, 3.0])
    assert summary == {"median": 2.0, "samples": 3}
    assert benchstats.timing_summary([float(i) for i in range(100)])["p90"] == 89.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert benchstats.tail_percentile([1.0] * 39) is None
    assert benchstats.tail_percentile([1.0] * 40)[0] == 75.0


def test_compare_rule_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [v * 0.9 for v in parent]
    slower = [v * 1.2 for v in parent]
    same = [v + 0.01 * (-1) ** i for i, v in enumerate(parent)]
    assert benchstats.compare_metric(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert benchstats.compare_metric(parent, slower, "lower", 0.1)["verdict"] == "regression"
    assert benchstats.compare_metric(parent, same, "lower", 0.1)["verdict"] == "unchanged"
    assert benchstats.compare_metric(parent, faster, "higher", 0.05)["verdict"] == "regression"
    assert benchstats.compare_metric(parent, slower, "higher", 0.1)["verdict"] == "gain"


def test_compare_rule_gain_needs_nine_tenths_of_pairs():
    parent = [10.0] * 10
    change = [9.0] * 8 + [10.0, 11.0]
    row = benchstats.compare_metric(parent, change, "lower", 0.2)
    assert row["wins"] == 8 and row["verdict"] == "unchanged"


def test_compare_rule_unresolved_when_spread_exceeds_bound():
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    change = [v * 1.02 for v in parent]
    assert benchstats.compare_metric(parent, change, "lower", 0.05)["verdict"] == "unresolved"
    clearly_better = [5.0] * 10
    assert benchstats.compare_metric(parent, clearly_better, "lower", 0.05)["verdict"] == "gain"


def _record(workload, value, env=None, seconds=20):
    return {"info": {"workload": workload, "trace": 0, "seconds": seconds,
                     "environment": env or {"python": "3.11", "nproc": 2}},
            "result": {"metrics": {"latency_s.p50": {"value": value, "unit": "s"}}}}


def test_comparison_refuses_different_environments():
    same = [_record("w", 1.0), _record("w", 1.1)]
    compare.check_comparable(same)
    with pytest.raises(compare.EnvironmentMismatch):
        compare.check_comparable(same + [_record("w", 1.0, env={"python": "3.12", "nproc": 2})])
    with pytest.raises(compare.EnvironmentMismatch):
        compare.check_comparable(same + [_record("w", 1.0, seconds=10)])


def test_compare_table_pairs_runs_per_workload(tmp_path):
    metrics = {"latency_s.p50": {"name": "latency_s.p50", "better": "lower", "bound": 0.1}}
    parent = [_record("a", 1.0 + 0.001 * i) for i in range(10)]
    change = [_record("a", 0.5 + 0.001 * i) for i in range(10)]
    rows = compare.compare_table(parent, change, metrics)
    assert [(r["workload"], r["verdict"]) for r in rows] == [("a", "gain")]
    path = tmp_path / "p.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in parent))
    assert compare.load_results([str(path)]) == parent


def test_benchmark_json_matches_the_code():
    import workloads
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(spans.LAYER_METRICS)
    assert all(m["unit"] == spans.unit_of(m["name"]) for m in bench["per_layer"])
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "peak_rss_mb", "ok_ratio", "throughput_per_s", "latency_s.p50"}
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "data-paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
