"""Operator entry point.

    mimoclr generate  --config desk --out data/desk
    mimoclr pretrain  data/desk --config desk --out runs/pre
    mimoclr finetune  data/desk --config desk --task positioning \\
                      --init pretrained --checkpoint runs/pre/pretrain.ckpt \\
                      --labels 200 --seeds 5 --out runs/ft
    mimoclr report    runs/ft/*.json

`mimoclr -v <command> ...` also logs progress (one line per generated
scenario, pretrain and fine-tune epoch, early stops, dropped tail batches)
to stderr.  Every command prints an effective-config echo; re-running with
the echoed config and seed reproduces outputs bit-identically.  Exit codes:
0 success, 2 configuration problems, 3 data problems, including a file that
cannot be read or written, 4 training divergence.
"""

import argparse
import ctypes
import dataclasses
import json
import logging
import os
import sys
import time

import numpy as np
import yaml

from . import chanmodel, config as cfgmod, datapipe, finetune as ft, pretrain as pt
from .errors import (ConfigError, ContractError, DataError, DegenerateDataError,
                     GenerationError, MimoclrError, TrainingDivergenceError)
from .nncore import checkpoint as ckpt

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

INITS = ("scratch", "pretrained", "probe")   # report column order
# The artifact keys report reads, each with the JSON types it accepts (a
# bool is not an int here).
REPORT_KEYS = {"task": (str,), "init": (str,), "seed": (int,), "label_budget": (int,),
               "metric_name": (str,), "val_metric": (int, float)}


def _echo(command: str, payload: dict) -> None:
    text = yaml.safe_dump({"command": command, **payload}, sort_keys=False).rstrip()
    for line in text.splitlines():
        print(f"# {line}")


def cmd_generate(args) -> int:
    ds_cfg = cfgmod.dataset_config(cfgmod.load_config(args.config))
    seed = ds_cfg.seed if args.seed is None else args.seed
    layout = ds_cfg.geometry
    _echo("generate", {"seed": seed, "out": args.out,
                       "dataset": dataclasses.asdict(dataclasses.replace(ds_cfg, seed=seed))})

    t0 = time.perf_counter()
    scenarios = [(c, chanmodel.generate_scenario(c, layout, seed)) for c in ds_cfg.scenarios]
    t1 = time.perf_counter()
    manifest = datapipe.build_dataset(scenarios, args.out, seed, ds_cfg.train_fraction,
                                      layout).manifest
    t2 = time.perf_counter()
    n_train = int(np.sum(np.asarray(manifest["split"]) == 1))
    print(f"wrote {manifest['n_records']} records -> {os.path.join(args.out, 'samples.bin')}")
    for c, samples in scenarios:
        print(f"  scenario {c.scenario_id}: {len(samples)} samples")
    print(f"split: {n_train} train / {manifest['n_records'] - n_train} val")
    print(f"records sha256: {manifest['records_sha256']}")
    print(f"wall time: scenarios {t1 - t0:.2f} s, build_dataset {t2 - t1:.2f} s")
    return 0


def cmd_pretrain(args) -> int:
    cfg = cfgmod.load_config(args.config)
    pcfg = cfgmod.pretrain_config(cfg, seed=args.seed)
    _echo("pretrain", {"data": args.data, "out": args.out, "resume": bool(args.resume),
                       "epochs_cap": args.epochs, "pretrain": dataclasses.asdict(pcfg)})
    dataset = datapipe.open_dataset(os.path.join(args.data, "manifest.json"))
    state = pt.run_pretraining(dataset, pcfg, args.out, resume=args.resume,
                               max_epochs=args.epochs)
    print(f"pretraining finished at epoch {state.epoch} "
          f"(best val loss {state.schedule.best:.4f}, tau {state.tau():.4f})")
    if state.history:
        last = state.history[-1]
        print(f"last epoch: train {last['train_loss']:.4f}, val {last['val_loss']:.4f}, "
              f"retrieval {last['retrieval']:.3f}")
    print(f"checkpoint: {os.path.join(args.out, 'pretrain.ckpt')}")
    print(f"metrics:    {os.path.join(args.out, 'pretrain_metrics.jsonl')}")
    return 0


def cmd_finetune(args) -> int:
    cfg = cfgmod.load_config(args.config)
    fcfg = cfgmod.finetune_config(cfg, label_budget=args.labels, epochs=args.epochs)
    pcfg = cfgmod.pretrain_config(cfg)
    if args.init in ("pretrained", "probe") and not args.checkpoint:
        raise ConfigError(f"--init {args.init} needs --checkpoint")
    seeds = list(range(args.seed, args.seed + args.seeds))
    _echo("finetune", {"data": args.data, "out": args.out, "task": args.task,
                       "init": args.init, "checkpoint": args.checkpoint, "seeds": seeds,
                       "finetune": dataclasses.asdict(fcfg),
                       "pretrain": {k: getattr(pcfg, k) for k in cfgmod.ARCHITECTURE_FIELDS}})
    summaries = ft.run_sweep(os.path.join(args.data, "manifest.json"), args.task, [args.init],
                             seeds, fcfg, pcfg, args.checkpoint, args.out, jobs=args.jobs)
    for s in summaries:
        print(f"{s['task']} {s['init']} seed {s['seed']}: "
              f"{s['metric_name']} {s['val_metric']:.4f} "
              f"(best epoch {s['best_epoch']}) -> {s['artifact']}")
    return 0


def _fmt(value, metric_name: str) -> str:
    if value is None:
        return "-"
    return f"{value:.2f}" if metric_name == "mean_error_m" else f"{value:.4f}"


def _row(values: dict, task: str) -> dict:
    """A report row from init -> metric: every init's value (None when
    absent) and, when both arms are present, pretrained's improvement."""
    row = {init: values.get(init) for init in INITS}
    pre, scr = row["pretrained"], row["scratch"]
    imp = {} if pre is None or scr is None else ft.improvement_report(pre, scr, task)
    row["relative_pct"], row["absolute_delta"] = imp.get("relative_pct"), imp.get("absolute_delta")
    return row


def cmd_report(args) -> int:
    artifacts = []
    for path in args.artifacts:
        try:
            with open(path, "r", encoding="utf-8") as f:
                artifacts.append(json.load(f))
        except (OSError, ValueError) as e:
            raise DataError(f"cannot read run artifact {path}: {e}") from e
    _echo("report", {"n_artifacts": len(artifacts)})

    # A task's table pairs one run of each init per seed at one label
    # budget; anything else would drop a run or pair runs given other labels.
    by_task, seen = {}, {}
    for path, a in zip(args.artifacts, artifacts):
        if not isinstance(a, dict):
            raise DataError(f"{path}: run artifact is a JSON {type(a).__name__}, not a mapping")
        if a.get("kind") != "finetune":
            raise DataError(f"{path}: not a fine-tuning artifact: {a.get('kind')!r}")
        for key, kinds in REPORT_KEYS.items():
            if key not in a:
                raise DataError(f"{path}: run artifact has no '{key}'")
            if type(a[key]) not in kinds:
                raise DataError(f"{path}: run artifact's '{key}' is {a[key]!r}, not "
                                f"{' or '.join(k.__name__ for k in kinds)}")
        if a["init"] not in INITS:
            raise DataError(f"{path}: run artifact's 'init' is {a['init']!r}, not one of {INITS}")
        if a["task"] not in ft.KIND_ALIASES.values():
            raise DataError(f"{path}: run artifact's 'task' {a['task']!r} is not a task")
        if not np.isfinite(a["val_metric"]):
            raise DataError(f"{path}: run artifact's 'val_metric' is {a['val_metric']}")
        runs = by_task.setdefault(a["task"], [])
        if runs and a["label_budget"] != runs[0]["label_budget"]:
            raise DataError(f"{a['task']} runs have label budgets {runs[0]['label_budget']} "
                            f"and {a['label_budget']} ({path}); report one budget per task")
        key = (a["task"], a["init"], a["seed"])
        if key in seen:
            raise DataError(f"{seen[key]} and {path} are both the {key[0]} {key[1]} run "
                            f"of seed {key[2]}")
        seen[key] = path
        runs.append(a)

    report = {"tasks": {}}
    lines = []
    for task in sorted(by_task):
        runs = by_task[task]
        metric_name = runs[0]["metric_name"]
        by_seed = {}
        for r in runs:
            by_seed.setdefault(r["seed"], {})[r["init"]] = r["val_metric"]
        rows = [{"seed": seed, **_row(by_seed[seed], task)} for seed in sorted(by_seed)]
        arms = {init: [row[init] for row in rows if row[init] is not None] for init in INITS}
        med = _row({init: float(np.median(v)) for init, v in arms.items() if v}, task)
        report["tasks"][task] = {"metric": metric_name, "rows": rows, "median": med}

        direction = "lower is better" if metric_name == "mean_error_m" else "higher is better"
        labels = runs[0]["label_budget"] or "full training split"
        lines.append(f"== {task} ({metric_name}; {direction}; labels: {labels}) ==")
        lines.append(f"{'seed':>6} {'scratch':>12} {'pretrained':>12} {'probe':>12} "
                     f"{'improvement':>12}")
        for label, row in [(r["seed"], r) for r in rows] + [("median", med)]:
            imp_s = "-" if row["relative_pct"] is None else f"{row['relative_pct']:+.2f}%"
            cells = " ".join(f"{_fmt(row[init], metric_name):>12}" for init in INITS)
            lines.append(f"{label:>6} {cells} {imp_s:>12}")
        lines.append("")

    text = "\n".join(lines).rstrip()
    if text:
        print(text)
    else:
        print("no artifacts to report")
    if args.json:
        ckpt.write_json(args.json, report)
        print(f"json report: {args.json}")
    return 0


def count(text: str) -> int:
    """argparse type of a count flag: an integer of at least 1, so a zero
    count exits 2 before any work instead of silently doing nothing."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mimoclr",
        description="Synthetic MIMO channel workbench: dataset generation, "
                    "contrastive CSI/CIR pretraining, and downstream evaluation.")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log progress at INFO level to stderr")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a dataset from a scenario config")
    g.add_argument("--config", required=True, help="config file path or preset name "
                   f"({', '.join(cfgmod.builtin_presets())})")
    g.add_argument("--out", required=True, help="output dataset directory")
    g.add_argument("--seed", type=int, help="override dataset.seed")
    g.set_defaults(fn=cmd_generate)

    q = sub.add_parser("pretrain", help="contrastive pretraining on a dataset")
    q.add_argument("data", help="dataset directory (from generate)")
    q.add_argument("--config", required=True)
    q.add_argument("--out", required=True, help="run directory for checkpoint + metrics")
    q.add_argument("--seed", type=int, help="override pretrain.seed")
    q.add_argument("--epochs", type=count, help="cap the epoch count")
    q.add_argument("--resume", action="store_true", help="continue from the checkpoint in --out")
    q.set_defaults(fn=cmd_pretrain)

    f = sub.add_parser("finetune", help="supervised adaptation, pretrained or scratch")
    f.add_argument("data", help="dataset directory")
    f.add_argument("--config", required=True)
    f.add_argument("--out", required=True, help="directory for run artifacts")
    f.add_argument("--task", required=True,
                   help="positioning | beam | los (aliases accepted)")
    f.add_argument("--init", required=True, choices=INITS,
                   help="probe = frozen pretrained encoder, head-only training")
    f.add_argument("--checkpoint", help="pretraining checkpoint (for pretrained/probe)")
    f.add_argument("--labels", type=int, help="label budget (0 = full training split)")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--seeds", type=count, default=1, help="run this many consecutive seeds")
    f.add_argument("--jobs", type=count, default=1, help="parallel workers across runs")
    f.add_argument("--epochs", type=count)
    f.set_defaults(fn=cmd_finetune)

    r = sub.add_parser("report", help="comparison tables from run artifacts")
    r.add_argument("artifacts", nargs="+", help="run artifact JSON files")
    r.add_argument("--json", help="also write the report as JSON to this path")
    r.set_defaults(fn=cmd_report)
    return p


# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def pin_malloc_thresholds() -> None:
    """Fix glibc's malloc thresholds for this process: requests below 32 MiB
    come from the heap, and up to 256 MiB of freed heap stays mapped for
    reuse.  Left to itself glibc derives both from past frees, and its trim
    threshold tops out at 64 MiB, below the 80-105 MB of buffers one desk
    training step allocates; once a step's buffers sat at the top of the
    heap, every step handed them back to the OS and page-faulted them in
    again (290k-420k minor faults per desk pretrain call after a generate in
    the same process).  A no-op where there is no glibc."""
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(M_MMAP_THRESHOLD, 32 << 20)
            mallopt(M_TRIM_THRESHOLD, 256 << 20)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    pin_malloc_thresholds()
    if not args.verbose:
        return _run(args)
    log = logging.getLogger("mimoclr")
    level = log.level
    handler = ft.log_to_stderr(logging.INFO)
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _run(args) -> int:
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, DegenerateDataError, GenerationError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergenceError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except ContractError as e:
        print(f"internal contract violation: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
