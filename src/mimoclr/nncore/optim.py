"""AdamW, plateau learning-rate control, and a finite-difference gradient check."""

from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractError, TrainingDivergenceError
from .tensor import Tensor


class AdamW:
    """Adam with decoupled weight decay.

    Update per step t (bias-corrected moments m_hat, v_hat):
        p <- p * (1 - lr * weight_decay)
        p <- p - lr * m_hat / (sqrt(v_hat) + eps)

    Decay multiplies the parameter directly instead of entering the moment
    estimates, so zero-gradient steps still shrink weights.
    """

    def __init__(self, params: dict, lr: float, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        if not params:
            raise ContractError("optimizer needs at least one parameter")
        if not lr >= 0:
            raise ContractError(f"learning rate must be nonnegative, got {lr}")
        self.params = dict(params)
        self.lr = float(lr)
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        b1, b2 = self.betas
        self.t += 1
        t = self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise TrainingDivergenceError(f"non-finite gradient in '{name}' at step {t}")
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if not np.all(np.isfinite(p.data)):
                raise TrainingDivergenceError(f"non-finite value in '{name}' after step {t}")

    def state_arrays(self) -> dict:
        """Moment buffers keyed for checkpointing."""
        out = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict, t: int):
        for name in self.params:
            self.m[name] = np.array(arrays[f"opt.m.{name}"], dtype=self.m[name].dtype)
            self.v[name] = np.array(arrays[f"opt.v.{name}"], dtype=self.v[name].dtype)
        self.t = int(t)


class LRPlateau:
    """Cut the learning rate by `factor` after `interval` consecutive epochs
    without a new best validation loss; `stale` counts the current
    no-improvement streak (it survives cuts) for early stopping.

    The first observation opens a streak of 1: an epoch only clears the
    streak by strictly improving on an earlier best.
    """

    def __init__(self, factor: float = 0.8, interval: int = 10):
        if not (0.0 < factor < 1.0) or interval < 1:
            raise ContractError(f"bad plateau schedule factor={factor} interval={interval}")
        self.factor = float(factor)
        self.interval = int(interval)
        self.best = None
        self.plateau = 0
        self.stale = 0

    def observe(self, val_loss: float, lr: float) -> float:
        """Record one epoch's validation loss; returns the (possibly cut) lr.

        A non-finite loss is divergence, not a plateau: it raises
        TrainingDivergenceError instead of counting toward early stop."""
        if not np.isfinite(val_loss):
            raise TrainingDivergenceError(f"non-finite validation loss {val_loss}")
        if self.best is not None and val_loss < self.best:
            self.best = val_loss
            self.plateau = 0
            self.stale = 0
            return lr
        if self.best is None:
            self.best = val_loss
        self.plateau += 1
        self.stale += 1
        if self.plateau >= self.interval:
            lr = lr * self.factor
            self.plateau = 0
        return lr

    def state(self) -> dict:
        return {"factor": self.factor, "interval": self.interval,
                "best": self.best, "plateau": self.plateau, "stale": self.stale}

    @classmethod
    def from_state(cls, s: dict) -> "LRPlateau":
        sched = cls(factor=s["factor"], interval=s["interval"])
        sched.best = s["best"]
        sched.plateau = int(s["plateau"])
        sched.stale = int(s["stale"])
        return sched


@dataclass
class GradCheckReport:
    per_param: dict
    max_rel_err: float
    worst_name: str
    worst_index: int
    worst_analytic: float
    worst_numeric: float

    def __str__(self):
        lines = [f"gradient check: max rel err {self.max_rel_err:.3e} "
                 f"({self.worst_name}[{self.worst_index}]: "
                 f"analytic {self.worst_analytic:.6e}, numeric {self.worst_numeric:.6e})"]
        for name, err in self.per_param.items():
            lines.append(f"  {name}: {err:.3e}")
        return "\n".join(lines)


def gradient_check(loss_fn, params: dict, rel_step: float = 1e-5,
                   max_entries_per_param=None, rng=None) -> GradCheckReport:
    """Compare backprop gradients against central finite differences.

    loss_fn rebuilds the scalar loss from the live `params` dict.  Per entry
    x the step is rel_step * max(1, |x|) and the error is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-6).  Use float64
    parameters; float32 cannot separate scheme error from roundoff.
    If max_entries_per_param is set, that many entries per tensor are
    sampled with `rng` instead of sweeping all of them.
    """
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}

    per_param = {}
    worst = (-1.0, "", 0, 0.0, 0.0)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        ana_flat = analytic[name].reshape(-1)
        n = flat.size
        if max_entries_per_param is not None and n > max_entries_per_param:
            if rng is None:
                raise ContractError("sampled gradient check needs an rng")
            idxs = np.sort(rng.choice(n, size=max_entries_per_param, replace=False))
        else:
            idxs = np.arange(n)
        worst_here = 0.0
        for i in idxs:
            x0 = flat[i]
            h = rel_step * max(1.0, abs(float(x0)))
            flat[i] = x0 + h
            lp = float(loss_fn().data)
            flat[i] = x0 - h
            lm = float(loss_fn().data)
            flat[i] = x0
            numeric = (lp - lm) / (2.0 * h)
            ana = float(ana_flat[i])
            err = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-6)
            if err > worst_here:
                worst_here = err
            if err > worst[0]:
                worst = (err, name, int(i), ana, numeric)
        per_param[name] = worst_here
    return GradCheckReport(per_param=per_param, max_rel_err=max(worst[0], 0.0),
                           worst_name=worst[1], worst_index=worst[2],
                           worst_analytic=worst[3], worst_numeric=worst[4])
