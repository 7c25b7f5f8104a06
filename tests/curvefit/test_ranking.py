"""``rank_models`` against the per-model fit it replaced, bit for bit.

The oracle below is the original fitting arithmetic: each model refits
the whole plot (sizes, float costs, OLS means and sums, RSS, TSS) on
its own.  ``rank_models`` computes a plot's shared terms once; every
field of every fit must still equal the oracle's (by ``repr``, so NaN,
infinities and signed zeros count), and a plot the oracle cannot fit
must raise the same exception type.
"""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curvefit import DEFAULT_FAMILY, FitResult, fit, rank_models


def oracle_ols(xs, ys):
    count = len(xs)
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0, mean_y
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    a = sxy / sxx
    return a, mean_y - a * mean_x


def oracle_fit(points, model):
    if not points:
        raise ValueError("cannot fit an empty cost plot")
    sizes = [p[0] for p in points]
    costs = [float(p[1]) for p in points]
    xs = model.transform(sizes)
    a, b = oracle_ols(xs, costs)
    if a < 0.0:
        a = 0.0
        b = sum(costs) / len(costs)
    rss = sum((y - (a * x + b)) ** 2 for x, y in zip(xs, costs))
    mean_y = sum(costs) / len(costs)
    tss = sum((y - mean_y) ** 2 for y in costs)
    r2 = 1.0 if tss == 0.0 else max(0.0, 1.0 - rss / tss)
    return FitResult(model, a, b, rss, r2)


def oracle_rank(points, family):
    fits = [oracle_fit(points, model) for model in family]
    fits.sort(key=lambda result: result.rss)
    return fits


def outcome(function, *args):
    """``repr`` of each fit's fields, or the type of the exception raised."""
    try:
        fits = function(*args)
    except Exception as error:      # noqa: BLE001 - the type is the outcome
        return ("raises", type(error).__name__)
    return [(result.model.name, repr(result.a), repr(result.b),
             repr(result.rss), repr(result.r2)) for result in fits]


# sizes cluster on few values (repeats make ``sxx == 0``) and include the
# clamped 0 and 1; magnitudes reach far enough to overflow a square
MAGNITUDES = (1.0, 1e3, 1e50, 1e100, 1e160, 1e200, 1e300)
sizes = st.one_of(
    st.sampled_from([0, 1, 2, 3, 8]),
    st.integers(min_value=0, max_value=200),
    st.floats(min_value=0.0, max_value=1e6),
    st.sampled_from(MAGNITUDES),
    st.just(10**400),                   # no float holds it
)
costs = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=10**9),
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from(MAGNITUDES + tuple(-m for m in MAGNITUDES)),
)
plots = st.one_of(
    st.lists(st.tuples(sizes, costs), max_size=12),
    # one size repeated: every basis is constant
    st.builds(lambda size, ys: [(size, y) for y in ys], sizes,
              st.lists(costs, min_size=1, max_size=6)),
    # decreasing costs: a negative slope, clamped to a = 0
    st.builds(lambda start, step: [(n, start - step * n) for n in range(12)],
              st.integers(min_value=0, max_value=10**6),
              st.integers(min_value=1, max_value=1000)),
)
families = st.one_of(
    st.just(DEFAULT_FAMILY),
    st.lists(st.sampled_from(DEFAULT_FAMILY), max_size=4),
)


@settings(max_examples=400, deadline=None)
@given(points=plots, family=families)
def test_rank_models_equals_per_model_fits(points, family):
    assert outcome(rank_models, points, family) == outcome(oracle_rank, points, family)


@settings(max_examples=200, deadline=None)
@given(points=plots, index=st.integers(min_value=0, max_value=len(DEFAULT_FAMILY) - 1))
def test_fit_equals_the_oracle(points, index):
    model = DEFAULT_FAMILY[index]
    assert outcome(lambda: [fit(points, model)]) == \
        outcome(lambda: [oracle_fit(points, model)])


def seeded_plots(seed=20261019, count=600):
    """A fixed mix of the plot shapes the property test draws."""
    rng = random.Random(seed)
    plots = []
    for index in range(count):
        shape = index % 6
        length = rng.randint(1, 16)
        if shape == 0:      # a noisy growth curve over repeated sizes
            power = rng.choice((0, 0.5, 1, 1.5, 2, 3))
            plots.append([(n, int(n ** power * rng.uniform(0.9, 1.1)) + rng.randint(0, 9))
                          for n in (rng.randint(0, 40) for _ in range(length))])
        elif shape == 1:    # one size
            size = rng.randint(0, 5)
            plots.append([(size, rng.randint(0, 100)) for _ in range(length)])
        elif shape == 2:    # decreasing
            plots.append([(n, 1000 - 7 * n) for n in range(length)])
        elif shape == 3:    # zero costs
            plots.append([(rng.randint(0, 30), 0) for _ in range(length)])
        elif shape == 4:    # floats
            plots.append([(rng.uniform(0, 100), rng.uniform(-5, 1e4))
                          for _ in range(length)])
        else:               # large enough to overflow
            magnitude = rng.choice((1e50, 1e100, 1e160, 1e300))
            plots.append([(rng.uniform(0, magnitude), rng.uniform(0, magnitude))
                          for _ in range(length)])
    return plots


def test_rankings_of_a_seeded_plot_set_are_pinned():
    text = "\n".join(repr(outcome(rank_models, points)) for points in seeded_plots())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "2e2d414b82b6e38edc59a094454bbc4f678ae96b46658a1fb275769825d258dc")
