"""Central finite-difference check of analytic gradients, the tests'
reference for `nn.backward` and the objectives built on it."""

import numpy as np


def finite_diff_check(loss_and_grad, params, h=1e-4, sample=30, rng=None):
    """Max relative error between analytic and central-difference gradients.

    loss_and_grad(params) must return (scalar loss, ParamSet gradients).
    A seeded random subset of `sample` coordinates is probed; the relative
    error denominator is max(|analytic|, |numeric|, 1e-8).
    """
    if not 1e-6 <= h <= 1e-2:
        raise ValueError("step h must lie in [1e-6, 1e-2]")
    if sample > params.n_params:
        raise ValueError("sample exceeds the parameter count")
    if rng is None:
        rng = np.random.default_rng(0)
    _, grads = loss_and_grad(params)
    flat = params.flatten()
    analytic = grads.flatten()
    idx = rng.choice(flat.size, size=sample, replace=False)
    worst = 0.0
    for i in idx:
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        up = loss_and_grad(params.unflatten(bumped))[0]
        bumped[i] = flat[i] - h
        down = loss_and_grad(params.unflatten(bumped))[0]
        numeric = (up - down) / (2.0 * h)
        err = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


