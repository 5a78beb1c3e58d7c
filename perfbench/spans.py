"""Spans around calls into mimoclr's modules, recorded from outside the package.

A `Tracer` keeps every span in memory: name, start, end, parent and the
phase it ran in (set-up or a measured iteration). `Instrumentation` swaps
the attributes that callers look up (for example `mimoclr.pretrain.load_batch`
rather than `mimoclr.datapipe.load_batch`, because pretrain imported the name)
for wrappers that open a span, and restores the originals on `uninstall`.
Backward time of each autodiff op is taken by wrapping the closure the op
attaches to its output tensor.
"""

import contextlib
import functools
import os
import resource
import time
import tracemalloc
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans = []           # [name, start, end, parent index or None, phase]
        self.counts = defaultdict(lambda: defaultdict(float))   # phase -> name -> value
        self.phase = "setup"
        self.paused = 0
        self._stack = []

    def open(self, name) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.phase])
        self._stack.append(index)
        return index

    def close(self, index) -> None:
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self.spans[index][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name, value=1.0) -> None:
        self.counts[self.phase][name] += value

    def summary(self, phase) -> dict:
        """Per span name: calls, total duration, self time (duration minus
        the union of its direct children's intervals) and, per child name,
        the time that child covered."""
        children = defaultdict(list)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                children[parent].append(i)
        out = {}
        for i, (name, start, end, _, ph) in enumerate(self.spans):
            if ph != phase or end is None:
                continue
            kids = children.get(i, ())
            row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                        "child": defaultdict(float)})
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += (end - start) - covered([(self.spans[k][1], self.spans[k][2])
                                                    for k in kids])
            for k in kids:
                row["child"][self.spans[k][0]] += self.spans[k][2] - self.spans[k][1]
        return out

    def top_level_time(self, phase, since=0) -> float:
        """Time covered by spans with no parent, from span index `since` on."""
        return covered([(s[1], s[2]) for s in self.spans[since:]
                        if s[3] is None and s[4] == phase and s[2] is not None])


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# nncore.tensor ops that are neither conv2d, avg_pool2d, relu nor matmul.
# tmean and l2_normalize_rows are left out: they are built from these ops,
# which they look up as module globals, so their work is already counted.
OTHER_OPS = ("add", "mul", "div", "transpose", "reshape", "exp", "log", "sqrt", "tsum",
             "maximum_const", "logsumexp", "gather_rows", "spatial_mean")


class Instrumentation:
    """Installs span wrappers on the mimoclr package for one Tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []
        self.missing = []
        self._stage = {"conv2d": 0, "avg_pool2d": 0}
        self._largest_load = None

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, make_wrapper):
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapper = make_wrapper(original)
        functools.update_wrapper(wrapper, original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self):
        import mimoclr.chanmodel as chanmodel
        import mimoclr.datapipe as datapipe
        import mimoclr.finetune as finetune
        import mimoclr.pretrain as pretrain
        from mimoclr.nncore import checkpoint, layers, optim
        from mimoclr.nncore import tensor as tensor_mod

        p = self._patch
        p(chanmodel, "generate_scenario", self._spanned("chanmodel.generate_scenario",
                                                        after=self._count_samples))
        p(chanmodel, "synthesize_csi", self._spanned("chanmodel.synthesize_csi"))
        p(chanmodel, "optimal_beam", self._spanned("chanmodel.optimal_beam"))
        p(datapipe, "synthesize_cir", self._spanned("chanmodel.synthesize_cir"))

        p(datapipe, "cir_to_csi", self._spanned("sigproc.cir_to_csi",
                                                after=self._counter("sigproc.cir_to_csi.calls")))
        p(datapipe, "shape_input", self._spanned("sigproc.shape_input"))
        p(datapipe, "fit_norm_stats", self._spanned("sigproc.fit_norm_stats"))
        p(datapipe, "normalize", self._spanned("sigproc.normalize"))

        p(datapipe, "write_dataset", self._spanned("datapipe.write_dataset",
                                                   after=self._written_bytes))
        p(datapipe, "split_dataset", self._spanned("datapipe.split_dataset"))
        p(datapipe, "save_manifest", self._spanned("datapipe.save_manifest"))
        p(datapipe, "open_dataset", self._spanned("datapipe.open_dataset",
                                                  after=self._opened_bytes))
        p(datapipe, "attach_norm_stats", self._spanned("datapipe.attach_norm_stats"))
        for caller in (pretrain, finetune):
            p(caller, "load_batch", self._spanned("datapipe.load_batch",
                                                  after=self._loaded_records))

        p(pretrain, "load_pairs", self._load_pairs)
        p(pretrain, "pretrain_epoch", self._spanned("pretrain.pretrain_epoch",
                                                    after=self._epoch_pairs))
        p(pretrain, "evaluate_pairs", self._spanned("pretrain.evaluate_pairs"))
        for caller in (pretrain, finetune):
            p(caller, "encode_batch", self._spanned("pretrain.encode_batch"))

        p(finetune, "init_finetune_run", self._spanned("finetune.init_finetune_run"))
        p(finetune, "_task_arrays", self._spanned("finetune.task_arrays"))
        p(finetune, "finetune", self._spanned("finetune.finetune"))
        p(finetune, "_val_loss", self._spanned("finetune.validation"))
        p(finetune, "evaluate", self._spanned("finetune.evaluate"))

        p(pretrain, "contrastive_loss", self._spanned("nncore.contrastive_loss"))
        p(finetune, "cross_entropy_loss", self._spanned("nncore.cross_entropy_loss"))
        p(finetune, "mse_loss", self._spanned("nncore.mse_loss"))
        p(optim.AdamW, "step", self._spanned("nncore.optim.step",
                                             after=self._counter("nncore.optim.step_calls")))
        p(checkpoint, "save_checkpoint", self._spanned("nncore.checkpoint.save",
                                                       after=self._saved_bytes))
        p(checkpoint, "load_checkpoint", self._spanned("nncore.checkpoint.load"))

        p(tensor_mod.Tensor, "backward", self._spanned("nncore.backward"))
        p(layers.Encoder, "forward", self._encoder_forward)
        p(tensor_mod, "conv2d", self._op("conv2d", staged=True, flop=conv2d_flop))
        p(tensor_mod, "avg_pool2d", self._op("avg_pool2d", staged=True))
        p(tensor_mod, "relu", self._op("relu"))
        p(tensor_mod, "matmul", self._op("matmul"))
        for name in OTHER_OPS:
            p(tensor_mod, name, self._op("other_ops"))
        return self

    # -- wrapper factories --------------------------------------------------

    def _spanned(self, name, after=None):
        tracer = self.tracer

        def make(original):
            def wrapper(*args, **kwargs):
                if tracer.paused:
                    return original(*args, **kwargs)
                index = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(index)
                if after is not None:
                    after(args, kwargs, result)
                return result
            return wrapper
        return make

    def _counter(self, name):
        return lambda args, kwargs, result: self.tracer.count(name)

    def _count_samples(self, args, kwargs, result):
        self.tracer.count("chanmodel.samples", len(result))

    def _written_bytes(self, args, kwargs, result):
        manifest_path, records_path = args[1], args[2]
        self.tracer.count("datapipe.write_dataset.bytes",
                          os.path.getsize(records_path) + os.path.getsize(manifest_path))

    def _opened_bytes(self, args, kwargs, result):
        records = os.path.join(os.path.dirname(args[0]), result.manifest["records_file"])
        self.tracer.count("datapipe.open_dataset.bytes", os.path.getsize(records))

    def _loaded_records(self, args, kwargs, result):
        self.tracer.count("datapipe.load_batch.records", len(result[0]))

    def _saved_bytes(self, args, kwargs, result):
        self.tracer.count("nncore.checkpoint.save_bytes", os.path.getsize(args[0]))

    def _epoch_pairs(self, args, kwargs, result):
        self.tracer.count("pretrain.pairs_seen", result["n_used"] + result["n_dropped"])
        self.tracer.count("pretrain.pairs_dropped", result["n_dropped"])

    def _load_pairs(self, original):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            with tracer.span("pretrain.load_pairs"):
                result = original(*args, **kwargs)
            if self._largest_load is None or result.n > self._largest_load[0]:
                self._largest_load = (result.n, original, args, kwargs)
            return result
        return wrapper

    def load_pairs_peak_mb(self) -> float:
        """Peak memory allocated by one more call of the largest traced
        load_pairs, by tracemalloc (numpy reports its arrays to it). Within
        one process, resident-size deltas would hide it: the allocator keeps
        memory freed by earlier iterations and hands it out again."""
        if self._largest_load is None:
            return 0.0
        _, original, args, kwargs = self._largest_load
        tracemalloc.start()
        try:
            original(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (1024.0 * 1024.0)

    def _encoder_forward(self, original):
        stage = self._stage

        def wrapper(*args, **kwargs):
            stage["conv2d"] = stage["avg_pool2d"] = 0
            return original(*args, **kwargs)
        return wrapper

    def _op(self, op, staged=False, flop=None):
        tracer = self.tracer
        stage = self._stage

        def make(original):
            def wrapper(*args, **kwargs):
                if tracer.paused:
                    return original(*args, **kwargs)
                if staged:
                    stage[op] += 1
                    base = f"nncore.{op}.stage{stage[op]}"
                else:
                    base = f"nncore.{op}"
                index = tracer.open(base + ".fwd")
                try:
                    out = original(*args, **kwargs)
                finally:
                    tracer.close(index)
                if flop is not None:
                    tracer.count(f"nncore.{op}.flop", flop(args, backward=False))
                closure = out._backward
                if closure is not None:
                    tracer.count("nncore.tape.closures_built")
                    out._backward = self._timed_closure(closure, base + ".bwd", args, flop)
                return out
            return wrapper
        return make

    def _timed_closure(self, closure, name, args, flop):
        tracer = self.tracer

        def backward(g):
            if tracer.paused:
                return closure(g)
            tracer.count("nncore.tape.closures_run")
            if flop is not None:
                tracer.count(name.split(".stage")[0] + ".flop", flop(args, backward=True))
            with tracer.span(name):
                closure(g)
        return backward


def conv2d_flop(args, backward: bool) -> float:
    """Multiply-add FLOP of one conv2d call (x, w, b) from its shapes; the
    backward pass does one im2col-sized matmul per input that needs a grad."""
    x, w = args[0], args[1]
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    one = 2.0 * n * f * c * kh * kw * h * wd
    if not backward:
        return one
    return one * (int(bool(w.requires_grad)) + int(bool(x.requires_grad)))


# Per-layer metrics: name -> (source, key). Sources: "total" and "self" are
# span durations, "calls" the span count, "count" the tracer's counters,
# "derived" a ratio of these, "run" a figure the runner measures. Values
# cover one set-up plus one measured iteration.
def _layer_table():
    t = {
        "chanmodel.generate_scenario.s": ("total", "chanmodel.generate_scenario"),
        "chanmodel.samples": ("count", "chanmodel.samples"),
        "chanmodel.synthesize_csi.s": ("total", "chanmodel.synthesize_csi"),
        "chanmodel.optimal_beam.s": ("total", "chanmodel.optimal_beam"),
        "chanmodel.synthesize_cir.s": ("total", "chanmodel.synthesize_cir"),
        "sigproc.cir_to_csi.s": ("total", "sigproc.cir_to_csi"),
        "sigproc.cir_to_csi.calls": ("calls", "sigproc.cir_to_csi"),
        "sigproc.shape_input.s": ("total", "sigproc.shape_input"),
        "sigproc.fit_norm_stats.s": ("total", "sigproc.fit_norm_stats"),
        "sigproc.normalize.s": ("total", "sigproc.normalize"),
        "datapipe.write_dataset.self_s": ("self", "datapipe.write_dataset"),
        "datapipe.write_dataset.bytes": ("count", "datapipe.write_dataset.bytes"),
        "datapipe.open_dataset.s": ("total", "datapipe.open_dataset"),
        "datapipe.open_dataset.bytes": ("count", "datapipe.open_dataset.bytes"),
        "datapipe.attach_norm_stats.self_s": ("self", "datapipe.attach_norm_stats"),
        "datapipe.load_batch.self_s": ("self", "datapipe.load_batch"),
        "datapipe.load_batch.records": ("count", "datapipe.load_batch.records"),
        "datapipe.load_pairs.alloc_peak_mb": ("run", None),
    }
    for op in ("conv2d", "avg_pool2d"):
        for k in (1, 2, 3):
            for d in ("fwd", "bwd"):
                t[f"nncore.{op}.stage{k}.{d}_s"] = ("total", f"nncore.{op}.stage{k}.{d}")
        if op == "conv2d":
            t["nncore.conv2d.flop"] = ("count", "nncore.conv2d.flop")
    for op in ("relu", "matmul", "other_ops"):
        for d in ("fwd", "bwd"):
            t[f"nncore.{op}.{d}_s"] = ("total", f"nncore.{op}.{d}")
    t.update({
        "nncore.backward.self_s": ("self", "nncore.backward"),
        "nncore.tape.closures_built": ("count", "nncore.tape.closures_built"),
        "nncore.tape.closures_run": ("count", "nncore.tape.closures_run"),
        "nncore.tape.used_ratio": ("derived", None),
        "nncore.contrastive_loss.s": ("total", "nncore.contrastive_loss"),
        "nncore.cross_entropy_loss.s": ("total", "nncore.cross_entropy_loss"),
        "nncore.mse_loss.s": ("total", "nncore.mse_loss"),
        "nncore.optim.step_s": ("total", "nncore.optim.step"),
        "nncore.optim.step_calls": ("count", "nncore.optim.step_calls"),
        "nncore.checkpoint.save_s": ("total", "nncore.checkpoint.save"),
        "nncore.checkpoint.save_bytes": ("count", "nncore.checkpoint.save_bytes"),
        "nncore.checkpoint.load_s": ("total", "nncore.checkpoint.load"),
        "pretrain.load_pairs.s": ("total", "pretrain.load_pairs"),
        "pretrain.pretrain_epoch.self_s": ("self", "pretrain.pretrain_epoch"),
        "pretrain.evaluate_pairs.s": ("total", "pretrain.evaluate_pairs"),
        "pretrain.encode_batch.s": ("total", "pretrain.encode_batch"),
        "pretrain.dropped_ratio": ("derived", None),
        "finetune.init_finetune_run.s": ("total", "finetune.init_finetune_run"),
        "finetune.task_arrays.s": ("total", "finetune.task_arrays"),
        "finetune.train_s": ("derived", None),
        "finetune.validation_s": ("total", "finetune.validation"),
        "finetune.evaluate.s": ("total", "finetune.evaluate"),
        "cli.report.s": ("total", "cli.report"),
        "trace.overhead_ratio": ("run", None),
        "trace.untraced_s": ("run", None),
    })
    return t


LAYER_METRICS = _layer_table()


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(".flop"):
        return "flop"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def layer_metrics(tracer: Tracer, iterations: int) -> dict:
    """Every LAYER_METRICS value except the 'run' ones, for one set-up (the
    traced run sets up once) plus one of `iterations` traced iterations."""
    summaries = {"setup": (tracer.summary("setup"), 1.0),
                 "iter": (tracer.summary("iter"), float(iterations))}

    def span(name, field):
        return sum(s.get(name, {}).get(field, 0.0) / n for s, n in summaries.values())

    def child(name, child_name):
        return sum(s.get(name, {}).get("child", {}).get(child_name, 0.0) / n
                   for s, n in summaries.values())

    def count(name):
        return sum(tracer.counts[phase][name] / summaries[phase][1] for phase in summaries)

    out = {}
    for metric, (source, key) in LAYER_METRICS.items():
        if source in ("total", "self", "calls"):
            out[metric] = span(key, source)
        elif source == "count":
            out[metric] = count(key)
    built = count("nncore.tape.closures_built")
    out["nncore.tape.used_ratio"] = count("nncore.tape.closures_run") / built if built else 0.0
    seen = count("pretrain.pairs_seen")
    out["pretrain.dropped_ratio"] = count("pretrain.pairs_dropped") / seen if seen else 0.0
    out["finetune.train_s"] = (span("finetune.finetune", "total")
                               - child("finetune.finetune", "finetune.task_arrays")
                               - child("finetune.finetune", "finetune.validation"))
    return out
