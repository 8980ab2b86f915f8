"""Central finite-difference verification of autodiff gradients.

Checks run on float64 graphs so the comparison is limited by the backward
rules under test, not by storage rounding.
"""

import numpy as np

from pkge.tensor import Tensor


def numeric_grad(fn, params, which, h=1e-3):
    """Central-difference dL/dparams[which] for a scalar-valued fn(*params).

    ``params`` are float64 arrays; ``fn`` receives them as Tensors and must
    return a scalar Tensor.
    """
    base = [np.array(p, dtype=np.float64) for p in params]
    target = base[which]
    g = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(*[Tensor(p) for p in base]).item()
        flat[i] = orig - h
        lo = fn(*[Tensor(p) for p in base]).item()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return g


def check_gradients(fn, params, h=1e-3, rtol=1e-4, atol=1e-7):
    """Compare autodiff grads of fn(*params) against central differences.

    Returns the worst relative error across all parameters; raises
    AssertionError when any entry violates |ad - fd| <= atol + rtol*|fd|.
    """
    tensors = [Tensor(np.array(p, dtype=np.float64), requires_grad=True)
               for p in params]
    loss = fn(*tensors)
    loss.backward()
    worst = 0.0
    for which, t in enumerate(tensors):
        fd = numeric_grad(fn, params, which, h=h)
        ad = t.grad if t.grad is not None else np.zeros_like(fd)
        denom = np.maximum(np.abs(fd), np.abs(ad))
        err = np.abs(ad - fd)
        rel = err / np.maximum(denom, atol / rtol)
        worst = max(worst, float(rel.max()) if rel.size else 0.0)
        if not np.all(err <= atol + rtol * denom):
            bad = np.unravel_index(np.argmax(err - rtol * denom), fd.shape)
            raise AssertionError(
                f"gradient mismatch for param {which} at {bad}: "
                f"autodiff={ad[bad]:.8g} fd={fd[bad]:.8g}"
            )
    return worst
