"""Summary statistics and the compare rules (choosing-metrics sections 1 and 8)."""

import math
import statistics

MIN_BEYOND = 10


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a, b, x):
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, p):
    """The Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics, the weight of the i-th of n being the Beta((n+1)p,
    (n+1)(1-p)) probability of ((i-1)/n, i/n]. A closed loop's requests fall
    in clusters by kind, and a single order statistic jumps across the gap
    between two clusters when one request's time changes a little; this
    estimate moves by that request's weight instead."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("quantile of no samples")
    if n == 1 or p <= 0.0 or p >= 1.0:
        return xs[0] if p <= 0.0 else xs[-1]
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, cdf, cdf[1:]))


def tail(values):
    """The highest percentile with at least MIN_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond, n). With n sorted samples
    the value is the one at rank n - MIN_BEYOND (1-based), so exactly
    MIN_BEYOND samples lie after it. Below MIN_BEYOND + 1 samples no
    percentile qualifies; the maximum is returned with 0 beyond."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= MIN_BEYOND:
        return xs[-1], 100.0, 0, n
    k = n - MIN_BEYOND
    return xs[k - 1], 100.0 * k / n, MIN_BEYOND, n


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def compare_metric(parent, change, direction, bound):
    """Verdict for one (workload, metric) from paired runs.

    parent[i] and change[i] form pair i. A win needs >= 10 pairs, the change
    better in at least 9/10 of them (ties count for neither), and a median
    gap larger than the parent's IQR. A regression is a median worse than
    the parent's by more than `bound` (a share of the parent's median).
    When the parent's own IQR exceeds the bound the metric is 'unresolved'
    unless every change run beats every parent run."""
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    losses = sum(better(p, c, direction) for p, c in zip(parent, change))
    iqr = p3 - p1
    worse = (cm - pm) if direction == "lower" else (pm - cm)
    worse_share = worse / abs(pm) if pm else (0.0 if worse <= 0 else float("inf"))
    spread_share = iqr / abs(pm) if pm else 0.0
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if n >= 10 and wins >= 0.9 * n and abs(cm - pm) > iqr and better(cm, pm, direction):
        verdict = "win"
    elif spread_share > bound and not all_better:
        verdict = "unresolved"
    elif worse_share > bound:
        verdict = "regression"
    else:
        verdict = "within-bound"
    return {
        "pairs": n,
        "wins": wins,
        "losses": losses,
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "ratio": cm / pm if pm else float("nan"),
        "base": pm,
        "worse_share": worse_share,
        "spread_share": spread_share,
        "verdict": verdict,
    }
