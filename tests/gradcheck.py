"""Central-difference gradient oracle for the autodiff tests."""

import numpy as np

from vibgraph import autodiff as ad


def grad_check(f, x: ad.Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor and must be deterministic
    (seed any randomness before each call); each call builds a fresh graph.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x.grad = None
    ad.backward(f(x))
    analytic = x.grad if x.grad is not None else np.zeros(x.shape)

    numeric = np.zeros(x.shape)
    base = x.values.copy()
    for ij in np.ndindex(x.shape):
        x.values = base.copy()
        x.values[ij] += h
        up = f(x).item()
        x.values = base.copy()
        x.values[ij] -= h
        dn = f(x).item()
        if not (np.isfinite(up) and np.isfinite(dn)):
            raise ad.DomainError("function non-finite at perturbed point")
        numeric[ij] = (up - dn) / (2.0 * h)
    x.values = base

    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))
