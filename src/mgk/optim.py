"""Adam with bias correction and the stepped square-root LR decay.

``schedule_lr`` holds the learning rate constant over ``LR_INTERVAL`` = 50
epochs: lr(epoch) = base_lr * (1 - floor(epoch / 50) * 50 / max_iter)^0.5,
clamped to exactly 0 at epoch == max_iter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .nn import TRAINABLE_FIELDS

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# epochs over which schedule_lr holds the learning rate constant
LR_INTERVAL = 50


@dataclass
class AdamState:
    """First/second moment accumulators keyed by (layer name, field)."""

    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """One Adam update over named parameters, in place.

    ``params`` is a sequence of (name, LayerParams); ``grads`` maps each
    name to {field: gradient array} covering that layer's trainable fields.
    A zero gradient leaves the parameter exactly unchanged.
    """
    if not (lr >= 0.0 and np.isfinite(lr)):
        raise ContractError(f"learning rate must be finite and >= 0, got {lr}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, layer in params:
        layer_grads = grads.get(name)
        if layer_grads is None:
            raise ContractError(f"missing gradients for layer {name!r}")
        for fieldname in TRAINABLE_FIELDS[layer.kind]:
            g = layer_grads.get(fieldname)
            if g is None:
                raise ContractError(
                    f"missing gradient {name}.{fieldname}"
                )
            g = np.asarray(g, dtype=np.float64)
            if not np.all(np.isfinite(g)):
                raise ContractError(f"non-finite gradient at {name}.{fieldname}")
            key = (name, fieldname)
            m = state.m.get(key)
            if m is None:
                m = np.zeros_like(g)
                state.m[key] = m
                state.v[key] = np.zeros_like(g)
            v = state.v[key]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            arr = getattr(layer, fieldname)
            arr -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def schedule_lr(base_lr: float, epoch: int, max_iter: int) -> float:
    """Learning rate for an epoch, a pure function of the arguments."""
    if not 0.0 < base_lr < np.inf:
        raise ContractError(
            f"base_lr must be positive and finite, got {base_lr}")
    if max_iter < 1:
        raise ContractError(f"max_iter must be >= 1, got {max_iter}")
    if not (0 <= epoch <= max_iter):
        raise ContractError(f"epoch must lie in [0, {max_iter}], got {epoch}")
    if epoch == max_iter:
        return 0.0
    frac = (epoch // LR_INTERVAL) * LR_INTERVAL / max_iter
    return float(base_lr * np.sqrt(max(0.0, 1.0 - frac)))
