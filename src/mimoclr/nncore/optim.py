"""AdamW and plateau learning-rate control."""

import numpy as np

from ..errors import ContractError, TrainingDivergenceError


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
    """Cut the learning rate by `factor` at every `interval`-th epoch of a
    streak without a new best validation loss; `stale` counts the current
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
        self.stale = 0

    def observe(self, val_loss: float, lr: float) -> float:
        """Record one epoch's validation loss; returns the (possibly cut) lr.

        A non-finite loss is divergence, not a plateau: it raises
        TrainingDivergenceError instead of counting toward early stop."""
        if not np.isfinite(val_loss):
            raise TrainingDivergenceError(f"non-finite validation loss {val_loss}")
        if self.best is not None and val_loss < self.best:
            self.best = val_loss
            self.stale = 0
            return lr
        if self.best is None:
            self.best = val_loss
        self.stale += 1
        if self.stale % self.interval == 0:
            lr = lr * self.factor
        return lr

    def state(self) -> dict:
        return {"factor": self.factor, "interval": self.interval,
                "best": self.best, "stale": self.stale}

    @classmethod
    def from_state(cls, s: dict) -> "LRPlateau":
        sched = cls(factor=s["factor"], interval=s["interval"])
        sched.best = s["best"]
        sched.stale = int(s["stale"])
        return sched
