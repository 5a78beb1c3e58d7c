"""Central finite-difference gradient checker: the oracle the autodiff,
loss and encoder tests compare backprop against."""

from dataclasses import dataclass

import numpy as np

from mimoclr.errors import ContractError


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
