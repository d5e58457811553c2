"""Closed-form proximal maps for the supported separable regularizers.

All maps solve argmin_z h(z) + ||z - v||^2 / (2 alpha) coordinatewise:

* ``zero``            h = 0
* ``l1``              h = weight * ||x||_1               (soft threshold)
* ``nonneg_l1``       h = weight * ||x||_1 + {x >= 0}    (shift then clamp)
* ``indicator_nonneg``h = {x >= 0}                       (clamp)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .inputs import PROX_SPEC, read


def _check(alpha: float, weight: float) -> None:
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not weight >= 0:  # NaN fails this comparison too
        raise ValueError("weight must be nonnegative")


def prox_zero(v: np.ndarray, alpha: float) -> np.ndarray:
    _check(alpha, 0.0)
    return np.array(v, dtype=float, copy=True)


def prox_l1(v: np.ndarray, alpha: float, weight: float) -> np.ndarray:
    _check(alpha, weight)
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - alpha * weight, 0.0)


def prox_nonneg_l1(v: np.ndarray, alpha: float, weight: float) -> np.ndarray:
    _check(alpha, weight)
    v = np.asarray(v, dtype=float)
    return np.maximum(v - alpha * weight, 0.0)


def _zero_value(x: np.ndarray) -> float:
    np.asarray(x, dtype=float)  # rejects what the other kinds reject
    return 0.0


def _maps(kind: str, weight: float) -> tuple:
    """(prox, value) of regularizer ``kind`` at ``weight``."""
    if kind == "zero":
        return prox_zero, _zero_value

    if kind == "l1":

        def l1_prox(v: np.ndarray, alpha: float) -> np.ndarray:
            return prox_l1(v, alpha, weight)

        def l1_value(x: np.ndarray) -> float:
            return weight * float(np.add.reduce(np.abs(np.asarray(x, dtype=float)), axis=None))

        return l1_prox, l1_value

    if kind == "nonneg_l1":

        def nonneg_l1_prox(v: np.ndarray, alpha: float) -> np.ndarray:
            return prox_nonneg_l1(v, alpha, weight)

        def nonneg_l1_value(x: np.ndarray) -> float:
            x = np.asarray(x, dtype=float)
            # fmin skips NaN: [nan, -1.0] is off the orthant, as with (x < 0).any(), and [] is on it
            if np.fmin.reduce(x, initial=0.0) < 0:
                return math.inf
            return weight * float(np.add.reduce(x))

        return nonneg_l1_prox, nonneg_l1_value

    def indicator_prox(v: np.ndarray, alpha: float) -> np.ndarray:
        return prox_nonneg_l1(v, alpha, 0.0)

    def indicator_value(x: np.ndarray) -> float:
        return math.inf if np.fmin.reduce(np.asarray(x, dtype=float), initial=0.0) < 0 else 0.0

    return indicator_prox, indicator_value


@dataclass(frozen=True)
class ProxSpec:
    """Named regularizer with its weight; serializes as {kind, lambda}.

    ``prox(v, alpha)`` and ``value(x)`` are resolved from the kind once, at
    construction.
    """

    kind: str
    weight: float = 0.0
    prox: Callable[[np.ndarray, float], np.ndarray] = field(init=False, repr=False, compare=False)
    value: Callable[[np.ndarray], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        read({"kind": self.kind, "weight": self.weight}, PROX_SPEC)
        prox, value = _maps(self.kind, self.weight)
        object.__setattr__(self, "prox", prox)  # the dataclass is frozen
        object.__setattr__(self, "value", value)

    def to_json(self) -> dict:
        return {"kind": self.kind, "lambda": float(self.weight)}
