"""What a result was measured on, and static facts about the code measured."""

import os
import platform

# Thread settings applied before numpy loads: the paper's one-core setting.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_version(np) -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    """Fields that must match for two results to be compared."""
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(np),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def src_lines(src_dir: str) -> int:
    """Line count of the package's Python sources (the figure ROADMAP tracks)."""
    total = 0
    for root, _, files in os.walk(src_dir):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as f:
                    total += sum(1 for _ in f)
    return total


def conv_shapes(cfg: dict) -> list:
    """Per encoder stage at a preset's pretraining shapes (one batch): conv
    forward FLOP, backward FLOP and im2col bytes. The first stage's input is
    data, so its backward computes the weight grad only."""
    geom = cfg["dataset"]["geometry"]
    pre = cfg["pretrain"]
    n = int(pre["batch_size"])
    h = geom["rx_geometry"]["rows"] * geom["rx_geometry"]["cols"] \
        * geom["tx_geometry"]["rows"] * geom["tx_geometry"]["cols"]
    w = int(geom["n_subcarriers"])
    k = int(pre["kernel_size"])
    c = 2
    out = []
    for i, f in enumerate(pre["widths"]):
        fwd = 2 * n * f * c * k * k * h * w
        out.append({"stage": i + 1, "input": [n, c, h, w], "filters": f,
                    "fwd_flop": fwd, "bwd_flop": fwd if i == 0 else 2 * fwd,
                    "im2col_bytes": 4 * n * c * k * k * h * w})
        c, h, w = f, h // 2, w // 2
    return out
