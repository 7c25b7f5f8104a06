"""Model selection: naming the growth rate of a cost plot.

:func:`select_model` fits every model of a family and ranks them.  Plain
RSS comparison systematically over-selects fast-growing models (a cubic
can always bend itself around linear data), so ranking uses a
parsimony-aware score: among models whose RSS is within ``tolerance`` of
the best, the *slowest-growing* one wins.  This mirrors how a human reads
the paper's cost plots — "the trend is linear unless the data genuinely
demands more".
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .fitting import FitResult, fit_models
from .models import DEFAULT_FAMILY, Model

__all__ = ["Selection", "select_model", "classify_growth", "rank_models"]


class Selection(NamedTuple):
    """Result of model selection over a family."""

    best: FitResult
    ranking: List[FitResult]

    @property
    def name(self) -> str:
        return self.best.model.name


def rank_models(
    points: Sequence[Tuple[float, float]],
    family: Optional[Sequence[Model]] = None,
) -> List[FitResult]:
    """All fits, ordered by residual sum of squares (best first).

    One :func:`~repro.curvefit.fitting.fit_models` pass computes the
    plot's shared terms once for the whole family; each fit equals
    :func:`~repro.curvefit.fitting.fit` of its model alone.  An empty
    family ranks nothing, whatever the plot.
    """
    family = DEFAULT_FAMILY if family is None else family
    if not family:
        return []
    fits = fit_models(points, family)
    fits.sort(key=lambda result: result.rss)
    return fits


def select_model(
    points: Sequence[Tuple[float, float]],
    family: Optional[Sequence[Model]] = None,
    tolerance: float = 0.10,
) -> Selection:
    """Pick the best model for a cost plot.

    Args:
        points: ``(size, cost)`` pairs (a worst-case or average plot).
        family: candidate models; defaults to :data:`DEFAULT_FAMILY`.
        tolerance: relative RSS slack within which a slower-growing model
            is preferred over a faster-growing one.

    Raises ValueError on an empty plot (propagated from
    :func:`~repro.curvefit.fitting.fit_models`).
    """
    ranking = rank_models(points, family)
    best_rss = ranking[0].rss
    threshold = best_rss * (1.0 + tolerance) + 1e-12
    candidates = [result for result in ranking if result.rss <= threshold]
    best = min(candidates, key=lambda result: result.model.order)
    return Selection(best, ranking)


def classify_growth(
    points: Sequence[Tuple[float, float]],
    family: Optional[Sequence[Model]] = None,
) -> str:
    """Convenience wrapper: the name of the selected growth class."""
    return select_model(points, family).name
