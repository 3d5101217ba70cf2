"""Adam with bias correction and the stepped square-root LR decay.

The schedule holds the learning rate constant over 50-epoch intervals:
lr(epoch) = base_lr * (1 - floor(epoch / interval) * interval / max_iter)^0.5,
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


@dataclass
class LrPolicy:
    """Stepped square-root decay; current_lr tracks the last value served."""

    base_lr: float = 0.001
    max_iter: int = 200
    interval: int = 50
    current_lr: float = 0.0

    def __post_init__(self):
        if not (self.base_lr > 0):
            raise ContractError(f"base_lr must be positive, got {self.base_lr}")
        if self.max_iter < 1 or self.interval < 1:
            raise ContractError("max_iter and interval must be >= 1")


def schedule_lr(policy: LrPolicy, epoch: int) -> float:
    """Learning rate for an epoch; constant within each interval."""
    if not (0 <= epoch <= policy.max_iter):
        raise ContractError(
            f"epoch must lie in [0, {policy.max_iter}], got {epoch}"
        )
    if epoch == policy.max_iter:
        lr = 0.0
    else:
        frac = (epoch // policy.interval) * policy.interval / policy.max_iter
        lr = policy.base_lr * np.sqrt(max(0.0, 1.0 - frac))
    policy.current_lr = float(lr)
    return policy.current_lr
