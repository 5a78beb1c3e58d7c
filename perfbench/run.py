"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pretrain-desk --seed 1 --seconds 8 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the run sets up SETUP_REPS times, repeats the workload's
iteration for --seconds (at least MIN_ITERATIONS times, all with the same
seed) and reports the end-to-end metrics. With --trace 1 it sets up once
and runs one untraced iteration and then traced ones for --seconds, and
reports the per-layer metrics, the tracing overhead and the time no
top-level span covers. Times are CPU seconds of this process (see
workloads.py); --seconds is wall time. The last line of stdout is the JSON
result; the lines before it print every metric with its unit, the
environment, the determinism digest and the source line count. --out appends the full
result as one JSON line to a file, for `perfbench/compare.py`.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import envinfo  # noqa: E402

envinfo.pin_threads()   # before anything imports numpy

SETUP_REPS = 2
MIN_ITERATIONS = 2      # the digest check compares iterations; traced runs need one untraced
WORK_DIR = ".perfbench_work"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full result as a JSON line to this file")
    return p.parse_args(argv)


def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")


def _measure(wl, ctx, work, seconds, traced):
    """Set-up and iterations; --seconds counts wall time. Returns the set-up
    times, the iteration results and the traced-run extras."""
    from spans import Instrumentation

    inst = Instrumentation(ctx.tracer) if traced else None
    setup_times, setup_states = {"cpu": [], "wall": []}, []
    for rep in range(1 if traced else SETUP_REPS):
        rep_dir = tempfile.mkdtemp(prefix="setup", dir=work)
        if inst:
            inst.install()
        c0, w0 = time.process_time(), time.perf_counter()
        setup_states.append(wl.setup(ctx, rep_dir))
        setup_times["cpu"].append(time.process_time() - c0)
        setup_times["wall"].append(time.perf_counter() - w0)
        if inst:
            inst.uninstall()
    first = setup_states[0]["digest"]
    ctx.check("set-ups produce equal digests", all(s["digest"] == first for s in setup_states))
    state = setup_states[-1]

    iters, cpu, extra = [], [], {"traced_cpu": [], "uncovered": [], "iteration_wall_s": []}
    start = time.perf_counter()
    while True:
        it_dir = tempfile.mkdtemp(prefix="iter", dir=work)
        # in a traced run the first iteration is the untraced reference
        tracing = traced and bool(iters)
        if tracing:
            inst.install()
            ctx.tracer.phase = "iter"
            since = len(ctx.tracer.spans)
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            result = wl.iterate(ctx, state, it_dir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            break
        finally:
            if tracing:
                inst.uninstall()
        took = time.process_time() - c0
        extra["iteration_wall_s"].append(time.perf_counter() - w0)
        shutil.rmtree(it_dir, ignore_errors=True)
        if iters:
            ctx.check("same seed gives the same digest", result["digest"] == iters[0]["digest"])
        iters.append(result)
        cpu.append(took)
        if tracing:
            extra["traced_cpu"].append(took)
            extra["uncovered"].append(took - ctx.tracer.top_level_time("iter", since))
        if len(iters) >= MIN_ITERATIONS and time.perf_counter() - start >= seconds:
            break
    extra["reference_cpu"] = cpu[0] if cpu else None
    extra["missing_hooks"] = inst.missing if inst else []
    extra["load_pairs_peak_mb"] = inst.load_pairs_peak_mb() if inst else None
    return setup_times, iters, extra


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mimoclr", "__init__.py")):
        print(f"perfbench: no mimoclr package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import benchstats
    import spans
    from mimoclr.config import load_config
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, WORK_DIR))
    ctx = Context(spans.Tracer() if args.trace else None)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        setup_times, iters, extra = _measure(wl, ctx, work, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, WORK_DIR))
        except OSError:
            pass    # another run still uses it
    if len(iters) < MIN_ITERATIONS:
        print(f"perfbench: {args.workload} completed {len(iters)} iteration(s); "
              f"failures: {ctx.failures}", file=sys.stderr)
        return 1

    if args.trace:
        values = spans.layer_metrics(ctx.tracer, len(extra["traced_cpu"]))
        traced = benchstats.median(extra["traced_cpu"])
        values["trace.overhead_ratio"] = traced / extra["reference_cpu"] - 1.0
        values["trace.untraced_s"] = benchstats.median(extra["uncovered"])
        values["datapipe.load_pairs.alloc_peak_mb"] = extra["load_pairs_peak_mb"]
        metrics = {name: {"value": values[name], "unit": spans.unit_of(name)}
                   for name in spans.LAYER_METRICS}
    else:
        values = wl.metrics(iters)
        metrics = {
            "setup_s": {"value": benchstats.median(setup_times["cpu"]), "unit": "s"},
            "peak_rss_mb": {"value": spans.peak_rss_mb(), "unit": "MB"},
            "ok_ratio": {"value": 1.0 - ctx.failed / ctx.attempted, "unit": "ratio"},
            "throughput_per_s": {"value": values["throughput_per_s"], "unit": "1/s"},
            "latency_s.p50": {"value": values["latency_s.p50"], "unit": "s"},
        }

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "iterations": len(iters),
        "setup_cpu_s": setup_times["cpu"], "setup_wall_s": setup_times["wall"],
        "iteration_wall_s": extra["iteration_wall_s"], "environment": envinfo.environment(),
        "src_lines": envinfo.src_lines(os.path.join(ROOT, "src")),
        "desk_conv": envinfo.conv_shapes(load_config("desk")),
        "digest": iters[0]["digest"],
        "detail": {name: {**benchstats.timing_summary(v), "values": v}
                   for name, v in wl.detail(iters).items()},
        "failures": ctx.failures,
    }
    if args.trace:
        info["missing_hooks"] = extra["missing_hooks"]
    print(f"# workload {args.workload} seed {args.seed}: {len(iters)} iterations, "
          f"{ctx.attempted} operations, {ctx.failed} failed")
    for failure in ctx.failures:
        print(f"# {failure}")
    print(f"# digest {info['digest']}")
    print(f"# src_lines {info['src_lines']}")
    for name, summary in info["detail"].items():
        print(f"# detail {name} {json.dumps(summary)}")
    print(f"# info {json.dumps(info, sort_keys=True)}")
    _print_metrics(metrics)
    result = {"correct": ctx.failed == 0, "attempted": ctx.attempted,
              "failed": ctx.failed, "metrics": metrics}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps({"info": info, "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
