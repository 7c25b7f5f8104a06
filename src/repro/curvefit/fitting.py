"""Least-squares fitting of cost plots against asymptotic models.

Given the ``(size, cost)`` points of a routine's worst-case (or average)
cost plot, :func:`fit_models` estimates the coefficients of each of
several models by ordinary least squares on its basis (:func:`fit` is
its one-model case), and :func:`fit_power_law` estimates a free exponent
by log-log regression — the quick "is this super-linear?" check used in
the Figure 6 reproduction.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .models import Model, clamp_size

__all__ = ["FitResult", "fit", "fit_models", "fit_power_law", "PowerLawFit"]


class FitResult(NamedTuple):
    """Outcome of fitting one model to a cost plot."""

    model: Model
    a: float
    b: float
    #: residual sum of squares
    rss: float
    #: coefficient of determination in [0, 1] (1 = perfect fit)
    r2: float

    def predict(self, n: float) -> float:
        return self.model.evaluate(n, self.a, self.b)


def _ols(xs: Sequence[float], ys: Sequence[float],
         mean_y: Optional[float] = None) -> Tuple[float, float]:
    """Ordinary least squares for ``y = a*x + b`` (closed form).

    A caller regressing one ``ys`` on several ``xs`` passes their mean
    ``mean_y`` once instead of having it summed per call.
    """
    count = len(xs)
    mean_x = sum(xs) / count
    if mean_y is None:
        mean_y = sum(ys) / count
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0, mean_y
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    a = sxy / sxx
    return a, mean_y - a * mean_x


def fit_models(points: Sequence[Tuple[float, float]],
               models: Sequence[Model]) -> List[FitResult]:
    """Fit each of ``models`` to ``(size, cost)`` points, in order.

    The plot's own terms — the clamped float sizes, the float costs,
    their mean and total sum of squares — are computed once and shared;
    each model adds only its basis transform and its regression sums.
    Every fit is bit-identical to fitting its model alone.

    The slope is clamped to be non-negative: a cost function decreasing
    in its own basis is never evidence *for* that growth class, and the
    clamp stops pathological plots from producing negative predictions.
    Raises ValueError on an empty plot.
    """
    if not points:
        raise ValueError("cannot fit an empty cost plot")
    costs = [float(p[1]) for p in points]
    sizes = [clamp_size(p[0]) for p in points]
    mean_y = sum(costs) / len(costs)
    tss = sum((y - mean_y) ** 2 for y in costs)
    fits = []
    for model in models:
        basis = model.basis
        xs = [basis(n) for n in sizes]
        a, b = _ols(xs, costs, mean_y)
        if a < 0.0:
            a, b = 0.0, mean_y
        rss = sum((y - (a * x + b)) ** 2 for x, y in zip(xs, costs))
        r2 = 1.0 if tss == 0.0 else max(0.0, 1.0 - rss / tss)
        fits.append(FitResult(model, a, b, rss, r2))
    return fits


def fit(points: Sequence[Tuple[float, float]], model: Model) -> FitResult:
    """Fit ``model`` to ``(size, cost)`` points (see :func:`fit_models`).

    Raises ValueError on an empty plot.
    """
    return fit_models(points, (model,))[0]


class PowerLawFit(NamedTuple):
    """Log-log regression result: ``cost ≈ c * n^exponent``."""

    exponent: float
    coefficient: float
    r2: float

    def predict(self, n: float) -> float:
        return self.coefficient * max(float(n), 1.0) ** self.exponent


def fit_power_law(points: Sequence[Tuple[float, float]]) -> PowerLawFit:
    """Estimate a free exponent from ``(size, cost)`` points.

    Points with non-positive size or cost are dropped (they carry no
    log-log information).  Raises ValueError when fewer than two usable
    points remain — an exponent needs a slope.
    """
    usable = [(n, c) for n, c in points if n > 0 and c > 0]
    if len(usable) < 2:
        raise ValueError("power-law fit needs at least two positive points")
    log_n = [math.log(n) for n, _ in usable]
    log_c = [math.log(c) for _, c in usable]
    exponent, intercept = _ols(log_n, log_c)
    rss = sum((y - (exponent * x + intercept)) ** 2 for x, y in zip(log_n, log_c))
    mean_y = sum(log_c) / len(log_c)
    tss = sum((y - mean_y) ** 2 for y in log_c)
    r2 = 1.0 if tss == 0.0 else max(0.0, 1.0 - rss / tss)
    return PowerLawFit(exponent, math.exp(intercept), r2)
