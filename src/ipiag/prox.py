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
from functools import partial
from typing import Callable

import numpy as np

from .inputs import PROX_SPEC, read

# a ufunc converts a Python float operand on every call and takes a 0-d array as it is
_ZERO = np.array(0.0)


def _check(alpha: float, weight: float) -> None:
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not weight >= 0:  # NaN fails this comparison too
        raise ValueError("weight must be nonnegative")


def prox_zero(v: np.ndarray, alpha: float) -> np.ndarray:
    _check(alpha, 0.0)
    return np.array(v, dtype=float, copy=True)


def _soft_threshold(weight: float, v: np.ndarray, alpha: float) -> np.ndarray:
    """The l1 map of prox_l1 and ProxSpec; max and the sign product write into z, if an array."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    v = np.asarray(v, dtype=float)
    z = np.subtract(np.abs(v), alpha * weight)
    z = np.maximum(z, _ZERO, out=z) if z.ndim else np.maximum(z, _ZERO)
    return np.multiply(np.sign(v), z, z) if z.ndim else np.sign(v) * z


def _shifted_clamp(weight: float, v: np.ndarray, alpha: float) -> np.ndarray:
    """The map of prox_nonneg_l1 and ProxSpec's orthant kinds; max writes into z, if an array."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    z = np.subtract(np.asarray(v, dtype=float), alpha * weight)
    return np.maximum(z, _ZERO, out=z) if z.ndim else np.maximum(z, _ZERO)


def prox_l1(v: np.ndarray, alpha: float, weight: float) -> np.ndarray:
    _check(alpha, weight)
    return _soft_threshold(weight, v, alpha)


def prox_nonneg_l1(v: np.ndarray, alpha: float, weight: float) -> np.ndarray:
    _check(alpha, weight)
    return _shifted_clamp(weight, v, alpha)


def _zero_value(x: np.ndarray) -> float:
    np.asarray(x, dtype=float)  # rejects what the other kinds reject
    return 0.0


def _maps(kind: str, weight: float) -> tuple:
    """(prox, value) of regularizer ``kind`` at ``weight``; a partial adds no Python frame."""
    if kind == "zero":
        return prox_zero, _zero_value

    if kind == "l1":
        def l1_value(x: np.ndarray) -> float:
            return weight * float(np.add.reduce(np.abs(np.asarray(x, dtype=float)), axis=None))

        return partial(_soft_threshold, weight), l1_value

    if kind == "nonneg_l1":
        def nonneg_l1_value(x: np.ndarray) -> float:
            x = np.asarray(x, dtype=float)
            # fmin skips NaN: [nan, -1.0] is off the orthant, as with (x < 0).any(), and [] is on it
            if np.fmin.reduce(x, initial=0.0) < 0:
                return math.inf
            return weight * float(np.add.reduce(x))

        return partial(_shifted_clamp, weight), nonneg_l1_value

    def indicator_value(x: np.ndarray) -> float:
        return math.inf if np.fmin.reduce(np.asarray(x, dtype=float), initial=0.0) < 0 else 0.0

    return partial(_shifted_clamp, 0.0), indicator_value


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
