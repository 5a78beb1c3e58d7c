"""The three benchmark workloads.

Each workload has a set-up, run once per set-up repetition, and an
iteration, repeated for the measured seconds with the same seed. Both drive
the calls the `mimoclr` subcommands make: the CLI itself where a subcommand
exists, the library where the workload needs finer timing than one
subcommand gives. All config seeds derive from the workload seed.

Every workload reports the same end-to-end metrics; what an item and a job
are differs per workload and is stated on each class.

Times are CPU seconds of the benchmark process (`time.process_time`). The
work is single-threaded (BLAS pinned to one thread, fine-tuning with
`--jobs 1`) and never waits, so on an unshared core CPU time equals wall
time; on a shared virtual machine it leaves out the time the host takes the
core away, the largest source of run-to-run spread there. A change that
adds threads or waiting would not show in it. The runner records wall times
next to it.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import time

import numpy as np
import yaml

from mimoclr import chanmodel, cli, datapipe, finetune, pretrain
from mimoclr import config as cfgmod
from mimoclr.nncore import checkpoint

EPS32 = float(np.finfo(np.float32).eps)


def derive_seed(seed: int, purpose: str) -> int:
    digest = hashlib.sha256(f"{seed}/{purpose}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tensors_digest(tensors: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        h.update(name.encode("utf-8"))
        h.update(str(arr.shape).encode("utf-8"))
        h.update(arr.tobytes())
    return h.hexdigest()


def combine(*parts) -> str:
    return hashlib.sha256("\n".join(str(p) for p in parts).encode("utf-8")).hexdigest()


class Context:
    """Operation counts, and the tracer when the run is traced.

    Operations are stage calls and output checks; a stage that raises counts
    as failed and ends the iteration."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []

    @contextlib.contextmanager
    def stage(self, name, span=False):
        self.attempted += 1
        index = self.tracer.open(name) if span and self.tracer is not None else None
        try:
            yield
        except Exception as e:
            self.failed += 1
            self.failures.append(f"{name}: {e!r}")
            raise
        finally:
            if index is not None:
                self.tracer.close(index)

    def check(self, name, ok, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check failed: {name} {detail}".rstrip())
        return bool(ok)

    @contextlib.contextmanager
    def checking(self):
        """Checks run as one benchmark span; calls they make into the
        package are not attributed to its layers."""
        if self.tracer is None:
            yield
            return
        index = self.tracer.open("bench.checks")
        self.tracer.paused += 1
        try:
            yield
        finally:
            self.tracer.paused -= 1
            self.tracer.close(index)

    def cli(self, argv) -> float:
        """Run one `mimoclr` subcommand in-process; returns its CPU seconds."""
        out, err = io.StringIO(), io.StringIO()
        with self.stage(f"cli.{argv[0]}", span=True):
            t0 = time.process_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            took = time.process_time() - t0
            if code != 0:
                raise RuntimeError(f"mimoclr {argv[0]} exited {code}: {err.getvalue().strip()}")
        return took


def _write_config(cfg: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as f:
        yaml.safe_dump(cfg, f, sort_keys=False)
    return path


class DataPaper:
    """`paper` geometry (8x8 tx, 2x2 rx, 64 taps, 256 subcarriers, 64 beams)
    over its four scenarios at 25 UEs each: 100 records, one view of each
    512 KiB, so a run holds several jobs.

    Job: `mimoclr generate`, then a verified open and a both-view
    `load_pairs` of the training split. Throughput counts records through
    generate, write, split and norm stats; latency is the open and load.
    chanmodel, sigproc and datapipe do nearly all the work; nncore none.
    """

    name = "data-paper"
    N_UE = 25
    WARMUP_UE = 2
    CHECKED_RECORDS = 4

    def __init__(self, seed: int, work: str):
        cfg = cfgmod.load_config("paper")
        cfg["dataset"]["seed"] = derive_seed(seed, "dataset")
        for scenario in cfg["dataset"]["scenarios"]:
            scenario["n_ue"] = self.N_UE
        self.n_records = self.N_UE * len(cfg["dataset"]["scenarios"])
        self.cfg_path = _write_config(cfg, os.path.join(work, "paper.yaml"))
        for scenario in cfg["dataset"]["scenarios"]:
            scenario["n_ue"] = self.WARMUP_UE
        self.warmup_path = _write_config(cfg, os.path.join(work, "paper-warmup.yaml"))
        self.check_rng = np.random.default_rng(derive_seed(seed, "check"))

    def setup(self, ctx: Context, rep_dir: str) -> dict:
        # A small pass through the same calls, so lazy initialisation is done
        # before the first timed job.
        ctx.cli(["generate", "--config", self.warmup_path, "--out", rep_dir])
        with ctx.stage("datapipe.open_dataset"):
            ds = datapipe.open_dataset(os.path.join(rep_dir, "manifest.json"))
        with ctx.stage("pretrain.load_pairs"):
            pretrain.load_pairs(ds, ds.train_indices())
        return {"digest": sha256_file(os.path.join(rep_dir, "samples.bin"))}

    def iterate(self, ctx: Context, state: dict, it_dir: str) -> dict:
        manifest_path = os.path.join(it_dir, "manifest.json")
        gen_s = ctx.cli(["generate", "--config", self.cfg_path, "--out", it_dir])
        t0 = time.process_time()
        with ctx.stage("datapipe.open_dataset"):
            ds = datapipe.open_dataset(manifest_path)
        with ctx.stage("pretrain.load_pairs"):
            train = ds.train_indices()
            pairs = pretrain.load_pairs(ds, train)
        load_s = time.process_time() - t0

        with ctx.checking():
            records_sha = sha256_file(os.path.join(it_dir, "samples.bin"))
            ctx.check("records sha256 matches manifest",
                      records_sha == ds.manifest["records_sha256"])
            ctx.check("record count", ds.n_records == self.n_records,
                      f"{ds.n_records} != {self.n_records}")
            stats = {m: ds.norm_stats(m) for m in ("cir", "csi")}
            ctx.check("norm stats finite", all(
                math.isfinite(v) for s in stats.values()
                for v in (s.vmin, s.vmax, s.mean, s.std)))
            rows = self.check_rng.choice(len(train), size=self.CHECKED_RECORDS, replace=False)
            worst = max(self._csi_error(ds, int(train[r]), pairs.x_csi[r], stats["csi"])
                        for r in rows)
            ctx.check("loaded CSI equals synthesize_csi", worst <= 1.0, f"error {worst:.3g} x tol")
            digest = combine(records_sha, json.dumps(ds.manifest["norm_stats"], sort_keys=True),
                             hashlib.sha256(pairs.x_csi.tobytes()).hexdigest(),
                             hashlib.sha256(pairs.x_cir.tobytes()).hexdigest())
        return {"digest": digest, "gen_s": gen_s, "load_s": load_s,
                "records": ds.n_records, "loaded": len(train)}

    @staticmethod
    def _csi_error(ds, index, loaded, stats) -> float:
        """Largest deviation of a loaded, normalized CSI view from
        synthesize_csi of the stored paths, in units of a tolerance that
        allows complex64 rounding of each stored tap plus float32 rounding
        of the normalized value."""
        m = ds.manifest
        tx = chanmodel.ArrayGeometry(**m["tx_geometry"])
        rx = chanmodel.ArrayGeometry(**m["rx_geometry"])
        sample, _ = ds.record(index)
        ref = chanmodel.synthesize_csi(sample, tx, rx, ds.n_subcarriers)
        ref = ref.reshape(-1, ds.n_subcarriers)
        span = stats.vmax - stats.vmin
        raw = (loaded.astype(np.float64) * stats.std + stats.mean) * span + stats.vmin
        err = max(np.max(np.abs(raw[0] - ref.real)), np.max(np.abs(raw[1] - ref.imag)))
        tol = (ds.n_taps + 1) * EPS32 * span
        return float(err / tol)

    def metrics(self, iters) -> dict:
        return {"throughput_per_s": statistics.median(i["records"] / i["gen_s"] for i in iters),
                "latency_s.p50": statistics.median(i["load_s"] for i in iters)}

    def detail(self, iters) -> dict:
        load = [i["loaded"] / i["load_s"] for i in iters]
        return {"data.gen_records_per_s": [i["records"] / i["gen_s"] for i in iters],
                "data.load_records_per_s": load}


class _DeskWorkload:
    """Shared set-up: the `desk` preset dataset through `mimoclr generate`."""

    def __init__(self, seed: int, work: str):
        cfg = cfgmod.load_config("desk")
        cfg["dataset"]["seed"] = derive_seed(seed, "dataset")
        cfg["pretrain"]["seed"] = derive_seed(seed, "pretrain")
        self.cfg = cfg
        self.cfg_path = _write_config(cfg, os.path.join(work, "desk.yaml"))

    def build_dataset(self, ctx: Context, rep_dir: str) -> dict:
        data = os.path.join(rep_dir, "data")
        ctx.cli(["generate", "--config", self.cfg_path, "--out", data])
        return {"data": data, "records_sha": sha256_file(os.path.join(data, "samples.bin"))}


class PretrainDesk(_DeskWorkload):
    """Contrastive pretraining on the desk dataset built in set-up.

    Job: one `mimoclr pretrain --epochs 1` from the seeded init, which
    opens the dataset, preloads both views, trains one epoch, evaluates the
    holdout and writes the checkpoint. Throughput counts fit-split training
    pairs per second of job time. The nncore training path dominates.
    """

    name = "pretrain-desk"
    EPOCHS = 1

    def setup(self, ctx: Context, rep_dir: str) -> dict:
        state = self.build_dataset(ctx, rep_dir)
        manifest = datapipe.load_manifest(os.path.join(state["data"], "manifest.json"))
        n_train = sum(manifest["split"])
        n_hold = max(1, math.floor(n_train * self.cfg["pretrain"]["holdout_fraction"]))
        state["n_fit"] = n_train - n_hold
        state["digest"] = state["records_sha"]
        return state

    def iterate(self, ctx: Context, state: dict, it_dir: str) -> dict:
        job_s = ctx.cli(["pretrain", state["data"], "--config", self.cfg_path, "--out", it_dir,
                        "--epochs", str(self.EPOCHS)])
        ckpt_path = os.path.join(it_dir, "pretrain.ckpt")
        with ctx.checking():
            with open(os.path.join(it_dir, "pretrain_metrics.jsonl"), encoding="utf-8") as f:
                rows = [json.loads(line) for line in f if line.strip()]
            ctx.check("one metrics row per epoch", len(rows) == self.EPOCHS)
            ctx.check("losses finite", all(math.isfinite(r["train_loss"])
                                           and math.isfinite(r["val_loss"]) for r in rows))
            chance = 1.0 / self.cfg["pretrain"]["batch_size"]
            ctx.check("holdout retrieval above chance", bool(rows) and rows[-1]["retrieval"] > chance,
                      f"{rows[-1]['retrieval'] if rows else None} <= {chance}")
            _, tensors = checkpoint.load_checkpoint(ckpt_path)
            ctx.check("checkpoint round-trips", self._round_trips(ckpt_path, tensors, it_dir))
            digest = combine(state["records_sha"], tensors_digest(tensors),
                             json.dumps(rows, sort_keys=True))
        return {"digest": digest, "job_s": job_s, "pairs": self.EPOCHS * state["n_fit"],
                "retrieval": rows[-1]["retrieval"]}

    @staticmethod
    def _round_trips(ckpt_path, tensors, it_dir) -> bool:
        """load_pretrain_state gives the stored parameters, and saving that
        state again stores identical tensors."""
        state, _ = pretrain.load_pretrain_state(ckpt_path)
        same = all(np.array_equal(p.data, tensors[name])
                   for name, p in state.parameters().items())
        again = os.path.join(it_dir, "roundtrip.ckpt")
        pretrain.save_pretrain_checkpoint(state, again)
        _, reloaded = checkpoint.load_checkpoint(again)
        return same and reloaded.keys() == tensors.keys() and all(
            np.array_equal(reloaded[k], tensors[k]) for k in tensors)

    def metrics(self, iters) -> dict:
        return {"throughput_per_s": statistics.median(i["pairs"] / i["job_s"] for i in iters),
                "latency_s.p50": statistics.median(i["job_s"] for i in iters)}

    def detail(self, iters) -> dict:
        return {"pretrain.pairs_per_s": [i["pairs"] / i["job_s"] for i in iters]}


class FinetuneLowlabel(_DeskWorkload):
    """Seed-paired low-label fine-tuning on the desk dataset.

    Set-up builds the dataset and a short pretraining checkpoint (one epoch
    over 256 training pairs). Iteration: the sweep tasks x inits at 200
    labels and one epoch, each run one `mimoclr finetune --jobs 1` call,
    then `mimoclr report`. Job: one fine-tune run; throughput counts runs
    per second over whole sweeps, report included. Validation forwards
    over the 512-record val split dominate.
    """

    name = "finetune-lowlabel"
    TASKS = ("positioning", "beam", "los")
    INITS = ("pretrained", "scratch")
    LABELS = 200
    EPOCHS = 1
    PRETRAIN_PAIRS = 256

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        self.ft_seed = derive_seed(seed, "finetune")

    def setup(self, ctx: Context, rep_dir: str) -> dict:
        state = self.build_dataset(ctx, rep_dir)
        ckpt_path = os.path.join(rep_dir, "pretrain.ckpt")
        with ctx.stage("pretrain.short_checkpoint"):
            ds = datapipe.open_dataset(os.path.join(state["data"], "manifest.json"))
            pcfg = cfgmod.pretrain_config(self.cfg)
            pre = pretrain.init_pretrain_state(pcfg, ds.n_rx * ds.n_tx, ds.n_subcarriers)
            pairs = pretrain.load_pairs(ds, ds.train_indices()[:self.PRETRAIN_PAIRS])
            pretrain.pretrain_epoch(pre, pairs)
            pretrain.save_pretrain_checkpoint(pre, ckpt_path)
        _, tensors = checkpoint.load_checkpoint(ckpt_path)
        state["ckpt"] = ckpt_path
        state["digest"] = combine(state["records_sha"], tensors_digest(tensors))
        return state

    def iterate(self, ctx: Context, state: dict, it_dir: str) -> dict:
        out = os.path.join(it_dir, "ft")
        run_s = []
        t0 = time.process_time()
        for task in self.TASKS:
            for init in self.INITS:
                argv = ["finetune", state["data"], "--config", self.cfg_path, "--out", out,
                        "--task", task, "--init", init, "--labels", str(self.LABELS),
                        "--epochs", str(self.EPOCHS), "--seed", str(self.ft_seed),
                        "--seeds", "1", "--jobs", "1"]
                if init == "pretrained":
                    argv += ["--checkpoint", state["ckpt"]]
                run_s.append(ctx.cli(argv))
        artifacts = sorted(os.path.join(out, n) for n in os.listdir(out) if n.endswith(".json"))
        report_path = os.path.join(it_dir, "report.json")
        ctx.cli(["report", *artifacts, "--json", report_path])
        sweep_s = time.process_time() - t0

        with ctx.checking():
            runs = []
            for path in artifacts:
                with open(path, encoding="utf-8") as f:
                    runs.append(json.load(f))
            ctx.check("one artifact per run", len(runs) == len(run_s))
            ctx.check("artifact metrics finite", all(
                math.isfinite(r["val_metric"]) and math.isfinite(r["best_val_loss"])
                for r in runs))
            with open(report_path, encoding="utf-8") as f:
                report = json.load(f)
            ctx.check("report medians and improvements recompute", self._report_matches(runs, report))
            digest = combine(state["digest"], json.dumps(
                sorted((r["task"], r["init"], r["seed"], r["val_metric"], r["best_val_loss"],
                        r["best_epoch"]) for r in runs)), json.dumps(report, sort_keys=True))
        return {"digest": digest, "run_s": run_s, "sweep_s": sweep_s}

    @staticmethod
    def _report_matches(runs, report) -> bool:
        by_task = {}
        for r in runs:
            by_task.setdefault(r["task"], {}).setdefault(r["init"], []).append(r["val_metric"])
        if set(by_task) != set(report["tasks"]):
            return False
        for task, per_init in by_task.items():
            med = report["tasks"][task]["median"]
            pre = statistics.median(per_init["pretrained"])
            scr = statistics.median(per_init["scratch"])
            want = finetune.improvement_report(pre, scr, task)
            got = {"pretrained": med["pretrained"], "scratch": med["scratch"],
                   "relative_pct": med["relative_pct"], "absolute_delta": med["absolute_delta"]}
            for key, value in got.items():
                if value is None or want[key] is None:
                    if value is not want[key]:
                        return False
                elif not math.isclose(value, want[key], rel_tol=1e-12, abs_tol=1e-12):
                    return False
        return True

    def metrics(self, iters) -> dict:
        return {"throughput_per_s": statistics.median(len(i["run_s"]) / i["sweep_s"] for i in iters),
                "latency_s.p50": statistics.median(s for i in iters for s in i["run_s"])}

    def detail(self, iters) -> dict:
        return {"finetune.run_s": [s for i in iters for s in i["run_s"]]}


WORKLOADS = {w.name: w for w in (DataPaper, PretrainDesk, FinetuneLowlabel)}
