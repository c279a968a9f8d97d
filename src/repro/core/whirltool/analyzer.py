"""WhirlTool analyzer (paper Sec 4.2).

Distance metric: for each profiling interval, the distance between two
pools is the area between their *combined* miss curve (sharing a cache,
Appendix B model) and their *partitioned* miss curve (optimal split of
the same capacity).  Cache-friendly pools barely interfere (small area);
a streaming pool combined with a cache-friendly one inflates its misses
(large area) — Fig 15.  Per-interval summation makes pools active in
disjoint phases cheap to merge, which is what lets programs with phase
behaviour use few pools.

Clustering: plain agglomerative — start with one pool per callpoint,
repeatedly merge the closest pair (re-estimating the merged pool's
curves with the combine model), record the merge tree, and cut it at the
desired pool count.

One builder plus its oracle:

- :meth:`WhirlToolAnalyzer.cluster_incremental` — the batched builder.
  Distances live in a condensed numpy matrix keyed by cluster index.
  The initial table is one batched evaluation over every (leaf pair,
  interval) lane its :class:`IncrementalClusterCache` lacks (through
  :func:`repro.curves.combine.combine_rate_rows` and
  :func:`repro.curves.partition.partitioned_rate_rows`, with each
  cluster's rate rows and hulls computed once and reused across every
  pair), and each merge computes the merged cluster's row against all
  survivors in a single batch.  :meth:`WhirlToolAnalyzer.cluster` is
  this builder with an empty cache; the online tool keeps one cache
  across re-clusters so only new intervals are evaluated.
- :meth:`WhirlToolAnalyzer.cluster_reference` — the original serial
  loop over :func:`pool_distance`, retained as the oracle.  The builder
  is bit-identical to it — merge order, distances, and tie-breaks
  (distance, then sorted min-callpoint) — which the property tests pin
  and which keeps the Fig 17 dendrograms byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.whirltool.profiler import CallpointProfile
from repro.curves.combine import combine_miss_curves, combine_rate_rows
from repro.curves.miss_curve import MissCurve, _lower_convex_hull_fast
from repro.curves.partition import partitioned_miss_curve, partitioned_rate_rows

__all__ = [
    "IncrementalClusterCache",
    "WhirlToolAnalyzer",
    "ClusteringResult",
    "pool_distance",
]


def pool_distance(a: list[MissCurve], b: list[MissCurve]) -> float:
    """Distance between two pools' per-interval curve series.

    Sum over intervals of the area between the combined and partitioned
    miss curves, normalized per instruction so intervals are comparable.
    """
    if len(a) != len(b):
        raise ValueError("pools must share the interval grid")
    total = 0.0
    for ca, cb in zip(a, b):
        if ca.accesses == 0 or cb.accesses == 0:
            continue  # inactive interval: no interference
        combined = combine_miss_curves(ca, cb)
        partitioned = partitioned_miss_curve(ca, cb)
        area = np.sum(combined.misses - partitioned.misses)
        total += max(float(area), 0.0) / max(combined.instructions, 1e-12)
    return total


def _lane_area_terms(
    rates: np.ndarray,
    hulls: np.ndarray,
    instr: np.ndarray,
    pa: np.ndarray,
    pb: np.ndarray,
    lane_t: np.ndarray,
) -> np.ndarray:
    """Per-lane combined-vs-partitioned area terms (one interval each).

    Lane ``i`` pairs clusters ``pa[i]`` and ``pb[i]`` at interval
    ``lane_t[i]``, gathered from the per-cluster ``(cluster, interval,
    ...)`` state arrays.

    The float core every distance evaluation shares: combine model and
    optimal split scaled to misses, the MissCurve monotone/clip
    normalization, and the per-instruction area.  The kernels
    underneath are lane-independent, so a term's value does not depend
    on which batch evaluated it — the property that makes cached terms
    reusable bit-identically.
    """
    ra = rates[pa, lane_t]
    rb = rates[pb, lane_t]
    instr_c = np.maximum(instr[pa, lane_t], instr[pb, lane_t])
    combined = combine_rate_rows(ra, rb) * instr_c[:, None]
    np.minimum.accumulate(combined, axis=1, out=combined)
    np.clip(combined, 0.0, None, out=combined)
    split = (
        partitioned_rate_rows(hulls[pa, lane_t], hulls[pb, lane_t])
        * instr_c[:, None]
    )
    np.minimum.accumulate(split, axis=1, out=split)
    np.clip(split, 0.0, None, out=split)
    area = np.sum(combined - split, axis=1)
    return np.maximum(area, 0.0) / np.maximum(instr_c, 1e-12)


@dataclass
class IncrementalClusterCache:
    """Leaf-pair distance terms carried across online re-clusters.

    ``terms[(cpa, cpb)]`` (callpoint ids, ``cpa < cpb``) holds that leaf
    pair's per-interval distance terms for the intervals evaluated so
    far.  Because the pool distance is a per-interval sum and sealed
    intervals' curves never change (the online epoch contract), a
    re-cluster after new intervals arrive only needs the *new* term
    columns; everything else is replayed from the cache.

    The caller owns the contract that cached intervals are final: feed
    the cache profiles whose previously-seen intervals changed and the
    replayed distances are stale.  Grid changes and shrinking interval
    counts are detected and drop the cache wholesale.
    """

    grid: tuple[int, int] | None = None
    terms: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def invalidate(self) -> None:
        """Drop everything (grid change, non-incremental profile)."""
        self.grid = None
        self.terms.clear()


def _pool_label(names: dict[int, str], cluster) -> str:
    """Render a cluster as its '+'-joined member names.

    Sorting the *rendered* names (not the callpoint ids) keeps the label
    deterministic regardless of set iteration order or the insertion
    order of the ``names`` dict.
    """
    return "+".join(sorted(names.get(cp, str(cp)) for cp in cluster))


@dataclass
class ClusteringResult:
    """Hierarchical clustering of callpoints (Fig 17's dendrogram).

    Attributes:
        callpoints: leaf callpoint ids.
        merges: ``(cluster_a, cluster_b, distance)`` triples in merge
            order; clusters are frozensets of callpoint ids.
        names: callpoint id -> region name (reporting).
    """

    callpoints: list[int]
    merges: list[tuple[frozenset, frozenset, float]] = field(default_factory=list)
    names: dict[int, str] = field(default_factory=dict)

    def assignments(self, n_pools: int) -> dict[int, int]:
        """Callpoint -> pool index (0-based) for ``n_pools`` clusters.

        Cutting the merge tree: replay merges until ``n_pools`` clusters
        remain.  Requesting more pools than callpoints yields one pool
        per callpoint.

        The replay is index-based: live clusters are slots in a
        union-find-style table looked up by membership, so each merge
        retires exactly one slot per operand — set-equal duplicates
        (e.g. repeated leaf callpoints) survive — and the whole replay
        is linear in total membership instead of quadratic.
        """
        if n_pools < 1:
            raise ValueError(f"n_pools must be >= 1, got {n_pools}")
        slots: list[set[int] | None] = [{cp} for cp in self.callpoints]
        by_members: dict[frozenset, list[int]] = {}
        for idx, members in enumerate(slots):
            by_members.setdefault(frozenset(members), []).append(idx)
        live = len(slots)
        for a, b, __ in self.merges:
            if live <= n_pools:
                break
            retired = 0
            for operand in (frozenset(a), frozenset(b)):
                open_slots = by_members.get(operand)
                if open_slots:
                    slots[open_slots.pop(0)] = None
                    retired += 1
            merged = set(a) | set(b)
            slots.append(merged)
            by_members.setdefault(frozenset(merged), []).append(len(slots) - 1)
            live += 1 - retired
        clusters = [c for c in slots if c is not None]
        out: dict[int, int] = {}
        for idx, cluster in enumerate(sorted(clusters, key=min)):
            for cp in cluster:
                out[cp] = idx
        return out

    def dendrogram_text(self) -> str:
        """ASCII rendering of the merge tree (Fig 17 stand-in)."""
        return "\n".join(
            f"{dist:10.4g}  {_pool_label(self.names, a)}"
            f"  <->  {_pool_label(self.names, b)}"
            for a, b, dist in self.merges
        )


class WhirlToolAnalyzer:
    """Agglomerative clustering of callpoints into pools."""

    def cluster(self, profile: CallpointProfile) -> ClusteringResult:
        """Build the full merge tree for one application's profile.

        :meth:`cluster_incremental` with an empty cache: one batched
        evaluation fills the initial pair-distance table.
        """
        return self.cluster_incremental(profile, IncrementalClusterCache())

    def cluster_incremental(
        self, profile: CallpointProfile, cache: IncrementalClusterCache
    ) -> ClusteringResult:
        """Build the merge tree, reusing ``cache``'s leaf-pair terms.

        The initial pair-distance table — the O(pairs × intervals) bulk
        of the work — only evaluates the (leaf pair, interval) lanes the
        cache lacks, all in one :func:`_lane_area_terms` batch; the rest
        replay from ``cache``, which is then extended.  With an empty
        cache every lane is evaluated (:meth:`cluster`); when a profile
        gains intervals (online sealed epochs) only the new columns are.
        The merge phase always runs fresh (merged pools' curves depend
        on every interval): each merge evaluates the merged cluster's
        row against all survivors in one batch.

        Bit-identical to :meth:`cluster_reference` — merge order,
        distances, tie-breaks — because per-lane terms do not depend on
        batch composition and per-pair totals accumulate in interval
        order, as the serial loop does.  Degenerate profiles (ragged
        series, mismatched grids, <= 1 leaf) drop the cache and go to
        :meth:`cluster_reference`.
        """
        order = sorted(profile.curves)
        n_leaves = len(order)
        series = [profile.curves[cp] for cp in order]
        flat = [c for s in series for c in s]
        n_intervals = len(series[0]) if series else 0
        if (
            n_leaves <= 1
            or n_intervals == 0
            or any(len(s) != n_intervals for s in series)
            or any(
                c.chunk_bytes != flat[0].chunk_bytes
                or c.n_chunks != flat[0].n_chunks
                for c in flat
            )
        ):
            cache.invalidate()
            return self.cluster_reference(profile)

        width = flat[0].n_chunks + 1
        grid = (flat[0].chunk_bytes, flat[0].n_chunks)
        if cache.grid != grid or any(
            len(v) > n_intervals for v in cache.terms.values()
        ):
            cache.invalidate()
            cache.grid = grid

        total_clusters = 2 * n_leaves - 1
        # Per-cluster state, indexed by cluster id; merged clusters are
        # appended after the n_leaves leaves.  Miss rows are transient:
        # only the derived rates (and their hulls) feed the distance
        # kernels, so raw miss counts never persist per cluster.
        instr = np.empty((total_clusters, n_intervals))
        accesses = np.empty((total_clusters, n_intervals))
        rates = np.empty((total_clusters, n_intervals, width))
        hulls = np.empty((total_clusters, n_intervals, width))
        members: list[frozenset] = [frozenset({cp}) for cp in order]
        mins = np.empty(total_clusters, dtype=np.int64)
        births = np.zeros(total_clusters, dtype=np.int64)
        leaf_misses = np.empty((n_intervals, width))
        for c, (cp, s) in enumerate(zip(order, series)):
            mins[c] = cp
            for t, curve in enumerate(s):
                leaf_misses[t] = curve.misses
                instr[c, t] = curve.instructions
                accesses[c, t] = curve.accesses
            rates[c] = leaf_misses / np.maximum(instr[c], 1e-12)[:, None]
            for t in range(n_intervals):
                hulls[c, t] = _lower_convex_hull_fast(rates[c, t])

        def lane_terms(
            ia: np.ndarray, ib: np.ndarray, need: np.ndarray
        ) -> np.ndarray:
            """``(pair, interval)`` distance terms of the needed lanes.

            Lanes not needed, and inactive ones (either side without
            accesses), are zero; the rest run through the distance
            kernels in one batch.
            """
            lane_p, lane_t = np.nonzero(
                need & (accesses[ia] > 0) & (accesses[ib] > 0)
            )
            vals = (
                _lane_area_terms(
                    rates, hulls, instr, ia[lane_p], ib[lane_p], lane_t
                )
                if len(lane_p)
                else 0.0
            )
            terms = np.zeros((len(ia), n_intervals))
            terms[lane_p, lane_t] = vals
            return terms

        def interval_sums(terms: np.ndarray) -> np.ndarray:
            """Per-pair totals, summed in interval order like the oracle."""
            total = np.zeros(len(terms))
            for t in range(n_intervals):
                total = total + terms[:, t]
            return total

        # Condensed distance matrix over cluster indices (inf = no pair).
        dist = np.full((total_clusters, total_clusters), np.inf)
        # Leaf-pair terms: each pair's cached prefix, plus one batch for
        # every lane past the end of it.
        ii, jj = np.triu_indices(n_leaves, k=1)
        keys = [(order[i], order[j]) for i, j in zip(ii.tolist(), jj.tolist())]
        cached = [cache.terms.get(key) for key in keys]
        lens = np.array([0 if got is None else len(got) for got in cached])
        term_matrix = lane_terms(
            ii, jj, np.arange(n_intervals) >= lens[:, None]
        )
        for k, got in enumerate(cached):
            if got is not None:
                term_matrix[k, : len(got)] = got
            if lens[k] < n_intervals:
                cache.terms[keys[k]] = term_matrix[k].copy()
        init = interval_sums(term_matrix)
        dist[ii, jj] = init
        dist[jj, ii] = init
        alive = np.zeros(total_clusters, dtype=bool)
        alive[:n_leaves] = True

        result = ClusteringResult(
            callpoints=profile.callpoints, names=dict(profile.names)
        )
        for step in range(1, n_leaves):
            live = np.flatnonzero(alive)
            sub = dist[np.ix_(live, live)]
            iu, ju = np.triu_indices(len(live), k=1)
            vals = sub[iu, ju]
            d_min = vals.min()
            # Tie-break exactly like the serial dict scan: smallest
            # (distance, sorted pair of cluster-min callpoints).
            ties = np.flatnonzero(vals == d_min)
            lo = np.minimum(mins[live[iu[ties]]], mins[live[ju[ties]]])
            hi = np.maximum(mins[live[iu[ties]]], mins[live[ju[ties]]])
            pick = ties[np.lexsort((hi, lo))[0]]
            ci, cj = live[iu[pick]], live[ju[pick]]
            # Record (a, b) in the serial table's key order: leaf pairs
            # were inserted min-first, any pair touching a merged cluster
            # was inserted when the younger cluster formed, younger first.
            if births[ci] == 0 and births[cj] == 0:
                a_id, b_id = (ci, cj) if mins[ci] < mins[cj] else (cj, ci)
            else:
                a_id, b_id = (ci, cj) if births[ci] > births[cj] else (cj, ci)
            result.merges.append(
                (members[a_id], members[b_id], float(d_min))
            )

            new = n_leaves + step - 1
            members.append(members[ci] | members[cj])
            mins[new] = min(mins[ci], mins[cj])
            births[new] = step
            instr[new] = np.maximum(instr[ci], instr[cj])
            accesses[new] = accesses[ci] + accesses[cj]
            # The merged pool's miss rows (combined model + the MissCurve
            # monotone/clip normalization), used only to derive rates.
            merged_misses = combine_rate_rows(rates[ci], rates[cj])
            merged_misses *= instr[new][:, None]
            np.minimum.accumulate(merged_misses, axis=1, out=merged_misses)
            np.clip(merged_misses, 0.0, None, out=merged_misses)
            rates[new] = merged_misses / np.maximum(instr[new], 1e-12)[:, None]
            for t in range(n_intervals):
                hulls[new, t] = _lower_convex_hull_fast(rates[new, t])
            alive[ci] = alive[cj] = False
            survivors = np.flatnonzero(alive)
            alive[new] = True
            if len(survivors):
                row = interval_sums(
                    lane_terms(np.full(len(survivors), new), survivors, np.True_)
                )
                dist[new, survivors] = row
                dist[survivors, new] = row
        return result

    def cluster_reference(self, profile: CallpointProfile) -> ClusteringResult:
        """The serial merge-tree construction (the oracle).

        O(n^2) pairwise :func:`pool_distance` calls into a dict-keyed
        table, updated incrementally — fine for the 10s-100s of
        callpoints real applications have, and the ground truth the
        batched :meth:`cluster` is pinned against.
        """
        pools: dict[frozenset, list[MissCurve]] = {
            frozenset({cp}): series for cp, series in profile.curves.items()
        }
        result = ClusteringResult(
            callpoints=profile.callpoints, names=dict(profile.names)
        )
        # Pairwise distance table, updated incrementally.
        dist: dict[tuple[frozenset, frozenset], float] = {}
        keys = sorted(pools, key=min)
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                dist[(a, b)] = pool_distance(pools[a], pools[b])
        while len(pools) > 1:
            (a, b), d = min(dist.items(), key=lambda kv: (kv[1], sorted(map(min, kv[0]))))
            result.merges.append((a, b, d))
            merged_key = frozenset(a | b)
            merged_curves = [
                combine_miss_curves(ca, cb)
                for ca, cb in zip(pools[a], pools[b])
            ]
            del pools[a]
            del pools[b]
            dist = {
                pair: v
                for pair, v in dist.items()
                if a not in pair and b not in pair
            }
            for other in list(pools):
                dist[(merged_key, other)] = pool_distance(
                    merged_curves, pools[other]
                )
            pools[merged_key] = merged_curves
        return result
