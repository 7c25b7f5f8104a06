"""Asymptotic model family for empirical cost functions.

Input-sensitive profiles pair input sizes with costs; fitting those
points against a small family of classical complexity models lets the
profiler *name* the growth rate of a routine (Figure 6 of the paper uses
exactly this kind of standard curve fitting to tell a linear rms trend
from a super-linear trms trend).

Each model is affine in one basis function: ``cost ≈ a * g(n) + b`` with
``a >= 0``.  Affinity keeps fitting closed-form (ordinary least squares
on a single regressor) while still covering the distinctions that matter
for asymptotic diagnosis: constant, logarithmic, linear, linearithmic,
quadratic, quadratic-log, cubic and exponential growth.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence

__all__ = ["Model", "DEFAULT_FAMILY", "clamp_size", "model_by_name"]


def clamp_size(n: float) -> float:
    """``n`` as the float a basis takes: sizes below 1 are clamped to 1,
    so log-type bases stay defined at the tiny inputs real profiles
    contain."""
    return max(float(n), 1.0)


class Model:
    """One asymptotic hypothesis ``cost ≈ a * basis(n) + b``."""

    def __init__(self, name: str, basis: Callable[[float], float], order: int):
        self.name = name
        self.basis = basis
        #: rank of the model inside the default family, used to break
        #: near-ties in favour of the slower-growing hypothesis
        self.order = order

    def transform(self, sizes: Sequence[float]) -> List[float]:
        """Apply the basis to each size (clamped by :func:`clamp_size`)."""
        return [self.basis(clamp_size(n)) for n in sizes]

    def evaluate(self, n: float, a: float, b: float) -> float:
        """Predicted cost at input size ``n`` for coefficients ``a, b``."""
        return a * self.basis(clamp_size(n)) + b

    def __repr__(self) -> str:
        return f"Model({self.name!r})"


def _exp_basis(n: float) -> float:
    # Cap the exponent: beyond ~60 doublings every finite cost is "exponential
    # enough", and the cap keeps the regression finite on wide size ranges.
    return 2.0 ** min(n, 60.0)


DEFAULT_FAMILY: List[Model] = [
    Model("O(1)", lambda n: 1.0, 0),
    Model("O(log n)", lambda n: math.log2(n + 1.0), 1),
    Model("O(sqrt n)", math.sqrt, 2),
    Model("O(n)", lambda n: n, 3),
    Model("O(n log n)", lambda n: n * math.log2(n + 1.0), 4),
    Model("O(n^2)", lambda n: n * n, 5),
    Model("O(n^2 log n)", lambda n: n * n * math.log2(n + 1.0), 6),
    Model("O(n^3)", lambda n: n * n * n, 7),
    Model("O(2^n)", _exp_basis, 8),
]


def model_by_name(name: str) -> Model:
    """Look up a model of the default family by its display name."""
    for model in DEFAULT_FAMILY:
        if model.name == name:
            return model
    raise KeyError(f"unknown model {name!r}")
