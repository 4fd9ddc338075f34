"""SimPoint-style phase clustering: pick measurement windows by BBV
similarity instead of stratified stride.

The stratified sampler treats every stretch of the program as equally
worth measuring, so a workload whose cycles-per-block distribution is
bimodal (mcf: pointer-chase phases vs. arithmetic phases) needs enough
windows for the *mixture* variance to average out — 50 windows at
interval 8000 just to hold a <=2% draw.  Phase clustering spends windows
where the behavioral diversity actually is: the program is cut into
fixed-size intervals, each interval is summarized by its basic-block
vector (static block address -> committed count, collected for free by
:class:`~repro.sampling.ffwd.FastForwarder`), similar intervals are
clustered, and each cluster gets measurement windows in proportion to
its population.  Within a phase the cycles-per-block variance is small,
so a handful of windows per phase matches the accuracy of dozens of
stratified ones.

Everything here is deterministic pure python: the only randomness is a
fixed 32-bit LCG seeded from ``SamplingConfig.phase_seed`` (projection
signs, k-means++ seeding), so the same program + seed always yields
byte-identical phase assignments and window schedules — across runs,
hosts, and engine tiers (the fast-forwarder that collects BBVs never
consults ``TripsConfig.fast_path``).

The pipeline:

1. **Normalize + project.**  Each interval's BBV is L1-normalized (so
   interval length doesn't dominate) and random-projected to
   ``dims`` dimensions with per-block-address +-1 sign rows — the
   SimPoint trick that makes k-means O(dims) per distance regardless of
   how many static blocks the program has.
2. **Cluster.**  k-means (k-means++ seeding, Lloyd iterations,
   deterministic tie-breaks) for every k up to ``max_phases``; the
   knee is picked with a BIC-style score (spherical-Gaussian
   log-likelihood minus a parameter-count penalty), taking the
   *smallest* k within 10% of the best score's range — SimPoint's
   "good enough, prefer fewer simulation points" rule.
3. **Schedule.**  Each cluster receives ``round(target * weight)``
   windows (at least one), placed at its member intervals: the
   interval closest to the centroid first (the phase's representative),
   the rest spread evenly across the cluster's extent in program order
   so a drifting phase is sampled along its drift.  Window weights are
   the cluster's population share split across its windows, which is
   what makes the population-weighted (stratified) estimator in
   :func:`~repro.sampling.stats.aggregate` honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["PhasePlan", "PhaseWindow", "kmeans", "plan_phases",
           "project_bbvs"]


# ----------------------------------------------------------------------
class _Rand:
    """The fixed 32-bit LCG (numerical recipes constants) used for every
    random choice in this module — deterministic by construction."""

    def __init__(self, seed: int):
        self.state = seed & 0xFFFFFFFF

    def next(self) -> float:
        """Uniform float in [0, 1)."""
        self.state = (self.state * 1664525 + 1013904223) & 0xFFFFFFFF
        return self.state / 0x100000000

    def pick(self, n: int) -> int:
        """Uniform index in [0, n)."""
        return min(n - 1, int(self.next() * n))


def project_bbvs(bbvs: Sequence[Dict[int, int]], dims: int = 16,
                 seed: int = 1) -> List[List[float]]:
    """L1-normalize each BBV and random-project it to ``dims`` floats.

    Every distinct static block address gets a deterministic +-1 sign
    row (drawn from the LCG over addresses in sorted order), so two
    intervals that execute the same blocks in the same proportions map
    to the same point no matter what else the program contains.
    """
    addrs = sorted({addr for vec in bbvs for addr in vec})
    rand = _Rand(seed ^ 0x5EEDB17)
    signs = {addr: [1.0 if rand.next() < 0.5 else -1.0
                    for _ in range(dims)] for addr in addrs}
    points: List[List[float]] = []
    for vec in bbvs:
        total = sum(vec.values()) or 1
        point = [0.0] * dims
        for addr, count in vec.items():
            w = count / total
            row = signs[addr]
            for d in range(dims):
                point[d] += w * row[d]
        points.append(point)
    return points


# ----------------------------------------------------------------------
def _dist2(a: Sequence[float], b: Sequence[float]) -> float:
    return sum((x - y) ** 2 for x, y in zip(a, b))


def kmeans(points: Sequence[Sequence[float]], k: int, seed: int = 1,
           iters: int = 60):
    """Deterministic k-means: k-means++ seeding off the LCG, Lloyd
    iterations with lowest-index tie-breaks, empty clusters reseeded to
    the farthest point.  Returns ``(assignments, centroids, sse)``."""
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")
    rand = _Rand(seed ^ 0xC10C)
    centroids = [list(points[rand.pick(n)])]
    d2 = [_dist2(p, centroids[0]) for p in points]
    while len(centroids) < k:
        total = sum(d2)
        if total <= 0.0:            # all points coincide with a centroid
            centroids.append(list(points[rand.pick(n)]))
            continue
        r = rand.next() * total
        acc = 0.0
        chosen = n - 1
        for i, w in enumerate(d2):
            acc += w
            if acc >= r:
                chosen = i
                break
        centroids.append(list(points[chosen]))
        d2 = [min(a, _dist2(p, centroids[-1])) for a, p in zip(d2, points)]

    assignments = [0] * n
    for _ in range(iters):
        changed = False
        for i, p in enumerate(points):
            best, best_d = 0, _dist2(p, centroids[0])
            for c in range(1, k):
                d = _dist2(p, centroids[c])
                if d < best_d:
                    best, best_d = c, d
            if assignments[i] != best:
                assignments[i] = best
                changed = True
        sums = [[0.0] * len(points[0]) for _ in range(k)]
        counts = [0] * k
        for i, p in enumerate(points):
            c = assignments[i]
            counts[c] += 1
            for d, x in enumerate(p):
                sums[c][d] += x
        for c in range(k):
            if counts[c]:
                centroids[c] = [x / counts[c] for x in sums[c]]
            else:
                # reseed an empty cluster to the point farthest from its
                # current centroid assignment (deterministic: lowest
                # index among the maxima)
                far_i = max(range(n), key=lambda i: (
                    _dist2(points[i], centroids[assignments[i]]), -i))
                centroids[c] = list(points[far_i])
                changed = True
        if not changed:
            break
    sse = sum(_dist2(p, centroids[assignments[i]])
              for i, p in enumerate(points))
    return assignments, centroids, sse


def _bic(points, assignments, k: int, sse: float) -> float:
    """Spherical-Gaussian BIC (the X-means / SimPoint scoring): data
    log-likelihood under a per-cluster spherical model with shared
    variance, minus a ``(k * (dims + 1) / 2) * log(n)`` penalty."""
    n = len(points)
    dims = len(points[0])
    if n <= k:
        return -math.inf
    counts = [0] * k
    for c in assignments:
        counts[c] += 1
    variance = sse / (dims * (n - k)) + 1e-12
    loglike = 0.0
    for nj in counts:
        if nj:
            loglike += (nj * math.log(nj / n)
                        - nj * dims / 2.0 * math.log(2 * math.pi * variance)
                        - (nj - 1) * dims / 2.0)
    return loglike - (k * (dims + 1) / 2.0) * math.log(n)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseWindow:
    """One scheduled measurement window."""

    start_block: int        # measurement starts here (warmup precedes it)
    phase: int              # cluster index
    weight: float           # population share this window represents

    def to_dict(self) -> dict:
        return {"start_block": self.start_block, "phase": self.phase,
                "weight": self.weight}


@dataclass
class PhasePlan:
    """The clustering outcome: assignments, weights, window schedule."""

    interval_blocks: int
    total_blocks: int
    n_intervals: int
    k: int
    assignments: List[int] = field(default_factory=list)
    weights: List[float] = field(default_factory=list)   # per cluster
    windows: List[PhaseWindow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"interval_blocks": self.interval_blocks,
                "total_blocks": self.total_blocks,
                "n_intervals": self.n_intervals,
                "k": self.k,
                "assignments": list(self.assignments),
                "weights": list(self.weights),
                "windows": [w.to_dict() for w in self.windows]}


def _spread(members: List[int], count: int) -> List[int]:
    """``count`` member indices spread evenly across ``members``."""
    if count >= len(members):
        return list(members)
    if count == 1:
        return [members[len(members) // 2]]
    picked = []
    for j in range(count):
        idx = round(j * (len(members) - 1) / (count - 1))
        if not picked or members[idx] != picked[-1]:
            picked.append(members[idx])
    return picked


def plan_phases(bbvs: Sequence[Dict[int, int]], interval_blocks: int,
                total_blocks: int, target_windows: int,
                warmup_blocks: int = 0, measure_blocks: int = 0,
                seed: int = 1, max_phases: int = 8,
                dims: int = 16) -> PhasePlan:
    """Cluster per-interval BBVs and schedule measurement windows.

    Each window sits at a deterministically *staggered* position inside
    its interval: at least ``warmup_blocks`` in (so the detailed warmup
    replays the same phase it is about to measure — an interval boundary
    is exactly where behavior may change) and ending before the interval
    does, with the slack between those bounds filled by a fixed-LCG
    offset keyed on the interval index.  Pinning every window to its
    interval boundary instead would resurrect the aliasing bias that
    jitter fixed for the stride scheduler: a loop period that divides
    ``interval_blocks`` puts every boundary at the same loop phase, and
    the measured −2.8% cycles on ``basefp01`` (any geometry, any
    horizon) flips to +0.4% with the stagger.  Weights are per-interval
    block populations, so a trailing partial interval counts for what
    it is.
    """
    n = len(bbvs)
    if n == 0:
        return PhasePlan(interval_blocks=interval_blocks,
                         total_blocks=total_blocks, n_intervals=0, k=0)
    blocks_per = [interval_blocks] * n
    blocks_per[-1] = total_blocks - interval_blocks * (n - 1)

    points = project_bbvs(bbvs, dims=dims, seed=seed)
    kmax = max(1, min(max_phases, n))
    runs = {}
    scores = {}
    for k in range(1, kmax + 1):
        assignments, centroids, sse = kmeans(points, k, seed=seed)
        runs[k] = (assignments, centroids)
        scores[k] = _bic(points, assignments, k, sse)
    finite = {k: s for k, s in scores.items() if math.isfinite(s)}
    if finite:
        best = max(finite.values())
        worst = min(finite.values())
        span = best - worst
        # smallest k whose score is within 10% of the best (SimPoint's
        # rule: prefer fewer phases among near-equal fits)
        chosen_k = min(k for k, s in sorted(finite.items())
                       if s >= best - 0.1 * span)
    else:
        chosen_k = 1        # too few intervals to score any split
    assignments, centroids = runs[chosen_k]

    cluster_blocks = [0] * chosen_k
    members: List[List[int]] = [[] for _ in range(chosen_k)]
    for i, c in enumerate(assignments):
        cluster_blocks[c] += blocks_per[i]
        members[c].append(i)
    weights = [b / total_blocks for b in cluster_blocks]

    windows: List[PhaseWindow] = []
    for c in range(chosen_k):
        if not members[c]:
            continue
        want = max(1, round(target_windows * weights[c]))
        # the representative (closest to centroid) always measures...
        rep = min(members[c],
                  key=lambda i: (_dist2(points[i], centroids[c]), i))
        chosen = [rep]
        if want > 1:
            # ...and the rest spread across the phase in program order
            for i in _spread(members[c], want):
                if i not in chosen:
                    chosen.append(i)
        share = weights[c] / len(chosen)
        slack = max(0, interval_blocks - warmup_blocks - measure_blocks)
        for i in chosen:
            # one LCG draw keyed on the interval index: stable no matter
            # which intervals end up chosen or in what order.  The
            # golden-ratio multiply scrambles the index first — adjacent
            # indices fed straight into the LCG give near-identical
            # fractions (the low-entropy tail of one affine step)
            h = ((i + 1) * 0x9E3779B1 ^ seed * 0x85EBCA6B) & 0xFFFFFFFF
            u = ((h * 1664525 + 1013904223) & 0xFFFFFFFF) / 0x100000000
            windows.append(PhaseWindow(
                start_block=(i * interval_blocks + warmup_blocks
                             + int(u * slack)),
                phase=c, weight=share))
    windows.sort(key=lambda w: w.start_block)
    return PhasePlan(interval_blocks=interval_blocks,
                     total_blocks=total_blocks, n_intervals=n,
                     k=chosen_k, assignments=list(assignments),
                     weights=weights, windows=windows)
