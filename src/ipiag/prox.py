"""Closed-form proximal maps for the supported separable regularizers.

All maps solve argmin_z h(z) + ||z - v||^2 / (2 alpha) coordinatewise:

* ``zero``            h = 0
* ``l1``              h = weight * ||x||_1               (soft threshold)
* ``nonneg_l1``       h = weight * ||x||_1 + {x >= 0}    (shift then clamp)
* ``indicator_nonneg``h = {x >= 0}                       (clamp)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("zero", "l1", "nonneg_l1", "indicator_nonneg")


def _check(alpha: float, weight: float) -> None:
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if weight < 0:
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


@dataclass(frozen=True)
class ProxSpec:
    """Named regularizer with its weight; serializes as {kind, lambda}."""

    kind: str
    weight: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown prox kind {self.kind!r}")
        if self.weight < 0:
            raise ValueError("weight must be nonnegative")

    def prox(self, v: np.ndarray, alpha: float) -> np.ndarray:
        if self.kind == "zero":
            return prox_zero(v, alpha)
        if self.kind == "l1":
            return prox_l1(v, alpha, self.weight)
        if self.kind == "nonneg_l1":
            return prox_nonneg_l1(v, alpha, self.weight)
        return prox_nonneg_l1(v, alpha, 0.0)  # indicator_nonneg

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return 0.0
        if self.kind == "l1":
            return self.weight * float(np.abs(x).sum())
        # fmin skips NaN: [nan, -1.0] is off the orthant, as with (x < 0).any(), and [] is on it
        if np.fmin.reduce(x, initial=0.0) < 0:
            return float("inf")
        if self.kind == "indicator_nonneg":
            return 0.0
        return self.weight * float(np.add.reduce(x))  # nonneg_l1 on its domain

    def to_json(self) -> dict:
        return {"kind": self.kind, "lambda": float(self.weight)}
