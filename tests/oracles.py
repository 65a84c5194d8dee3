"""Oracles the tests compare the exact operators against, kept apart from
the package because no code path of the package uses them."""

import math
import sys

import numpy as np

from morreylab.orlicz import _llog_rows
from morreylab.stepfn import Interval, StepFunction, prefix_at


def brute_force_maximal(
    f: StepFunction,
    x: float,
    samples: int = 10_000,
    seed: int = 0,
    zoom_rounds: int = 1,
) -> float:
    """Monte-Carlo lower estimate of Mf(x), independent of the exact path.

    Draws random intervals [u, v] containing x inside a generous hull.  With
    ``zoom_rounds > 1`` the sample budget is spread over coarse-to-fine
    rounds: most draws concentrate in a shrinking box around the incumbent
    while a fixed share keeps exploring the full hull.  Plain uniform
    sampling stalls at grid resolution near isolated optima; the zoom
    schedule converges geometrically instead.
    """
    x = float(x)
    if f.is_zero:
        return 0.0
    rng = np.random.default_rng(seed)
    b0, bm = f.breakpoints[0], f.breakpoints[-1]
    span = max(bm - b0, 1e-9)
    ulo0, uhi0 = min(b0, x) - span, x
    vlo0, vhi0 = x, max(bm, x) + span
    best = abs(f(x))
    bu, bv = x, x
    box = (ulo0, uhi0, vlo0, vhi0)
    per_round = max(1, samples // max(zoom_rounds, 1))
    for rnd in range(max(zoom_rounds, 1)):
        n_explore = per_round if rnd == 0 else per_round // 4
        n_zoom = per_round - n_explore
        u = rng.uniform(ulo0, uhi0, n_explore)
        v = rng.uniform(vlo0, vhi0, n_explore)
        if n_zoom:
            u = np.concatenate((u, rng.uniform(box[0], box[1], n_zoom)))
            v = np.concatenate((v, rng.uniform(box[2], box[3], n_zoom)))
        lengths = v - u
        ok = lengths > 0
        if ok.any():
            bnp, w, prefix = f._abs_arrays
            masses = prefix_at(bnp, w, prefix, v[ok]) - prefix_at(bnp, w, prefix, u[ok])
            ratios = masses / lengths[ok]
            k = int(np.argmax(ratios))
            if ratios[k] > best:
                best = float(ratios[k])
                bu, bv = float(u[ok][k]), float(v[ok][k])
        wu = max((box[1] - box[0]) / 6.0, 1e-15)
        wv = max((box[3] - box[2]) / 6.0, 1e-15)
        box = (
            max(ulo0, bu - wu),
            min(uhi0, bu + wu),
            max(vlo0, bv - wv),
            min(vhi0, bv + wv),
        )
    return best


def log_grid_witness(f: StepFunction, lam: float, per_e: int = 64) -> tuple[float, Interval]:
    """Largest Zygmund-Morrey objective |Q|^lam t_Q over the intervals Q that
    start at a breakpoint of f and run to either side, with lengths on a log
    grid of ``per_e`` points per factor e: from a hundredth of the shortest
    cell up to the longest length at which every such window is still scored
    in floats (|Q|, max|f| |Q| and the breakpoints plus |Q| stay finite, and
    the smaller boundary cell's mass over |Q| normal, with a factor 4 to
    spare).  Each interval is scored through ``_llog_rows``, so the result is
    attained: a lower bound of the norm, with the interval attaining it.
    """
    b, w, _ = f._abs_arrays
    dx = np.diff(b)
    boundary_mass = min(w[0] * dx[0], w[-1] * dx[-1])
    top = min(math.log(sys.float_info.max / 4) - math.log(max(w.max(), np.abs(b).max(), 1.0)),
              math.log(boundary_mass) - math.log(4 * sys.float_info.min))
    logs = np.append(np.arange(math.log(dx.min() / 100), top, 1.0 / per_e), top)
    lengths = np.tile(np.exp(logs), len(b))
    anchors = np.repeat(b, len(logs))
    lefts = np.concatenate((anchors, anchors - lengths))
    rights = np.concatenate((anchors + lengths, anchors))
    obj = (rights - lefts) ** lam * _llog_rows(f, lefts, rights)[0]
    i = int(np.argmax(obj))
    return float(obj[i]), Interval(lefts[i], rights[i])
