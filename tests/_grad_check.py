"""Central-difference gradient checker used only by tests.

Compares the package's reverse-mode gradients against finite differences
of the forward pass; the model under test is cast to float64 first with
`Module.astype`.
"""

import math
from typing import Callable, Iterable

import numpy as np

from audiocap.nn import Tensor, _result, rng_from_seed


class NonFiniteValue(FloatingPointError):
    pass


def relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def grad_check(f: Callable[[], Tensor], params: Iterable[Tensor] | dict,
               h: float | tuple[float, ...] = 1e-5,
               samples_per_param: int | None = None,
               seed: int = 0) -> float:
    """Compare reverse-mode gradients of f() against central differences.

    f is a closure over `params` returning a scalar Tensor. With
    samples_per_param=None every entry of every parameter is perturbed;
    otherwise that many entries per parameter are drawn from a seeded RNG.
    Returns the max relative error |a-n| / max(|a|, |n|, 1e-8).

    h may be a single step or several; with several, each entry scores
    the best-agreeing step. No single global step serves every entry:
    small-gradient coordinates need a large step to rise above float64
    cancellation noise, while high-curvature coordinates need a small one
    to keep truncation down. A genuinely wrong backward pass disagrees at
    every step size, so the per-entry choice does not mask defects.
    """
    if isinstance(params, dict):
        params = list(params.values())
    else:
        params = list(params)
    steps = (h,) if isinstance(h, float) else tuple(h)
    for p in params:
        p.grad = None
    out = f()
    if not np.isfinite(out.data):
        raise NonFiniteValue("objective is not finite")
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]
    rng = rng_from_seed(seed)
    worst = 0.0
    for p, a in zip(params, analytic):
        size = p.data.size
        if samples_per_param is None or samples_per_param >= size:
            entries = np.arange(size)
        else:
            entries = rng.choice(size, size=samples_per_param, replace=False)
        for j in entries:
            orig = p.data.flat[j]
            best = math.inf
            for step in steps:
                p.data.flat[j] = orig + step
                f1 = float(f().data)
                p.data.flat[j] = orig - step
                f2 = float(f().data)
                p.data.flat[j] = orig
                if not (math.isfinite(f1) and math.isfinite(f2)):
                    raise NonFiniteValue(
                        "objective is not finite under perturbation")
                numeric = (f1 - f2) / (2.0 * step)
                best = min(best, relative_error(float(a.flat[j]), numeric))
            worst = max(worst, best)
    return worst


def tsum(t: Tensor) -> Tensor:
    """The sum of every element as a scalar graph node: a test's loss."""
    return _result(t.data.sum(), (t,),
                   lambda g: t._accum(np.broadcast_to(g, t.data.shape)))
