"""Exact neighbor rankings under cosine distance and per-rank label-agreement curves.

Ranks are exact: every row is ranked from the dense pairwise distance
matrix, distance ties broken by ascending sample index. At desk scale (n
around a few thousand) brute force is affordable, and the downstream
statistics are defined on exact neighbor sets, not approximations.

One ranking engine serves every analysis. A ``NeighborTable`` ranks
nothing up front: it keeps the distance matrix, and each analysis ranks all
its rows once, in blocks, only as deep as it reads: the robustness index k
columns, the cross-validated probes a fold-dependent margin above their
largest k. Rows that need more are ranked deeper from the same bits.
Group exclusion is decided once, in ``build_neighbor_table``: same-group
pairs get distance +inf, as the diagonal does, so one kernel ranks every table.

Row blocks run as tasks on every core in the process's CPU affinity
(``_workers``), on the threads of one pool (``_map_blocks``): ranking, the
per-rank same-label counts (``_same_label_counts``) of ``frequency_curves``
and ``robustness.robustness_index``, the kNN-run ensemble of ``evaluation``
(which the kNN probe runs on one fold assignment), and
``projection.trustworthiness``. Every stage sizes its tasks with ``_row_blocks`` and each task is a pure function of its rows:
it writes or returns only its own rows' results, so they are the same for
any worker count, and ``taskset -c 0`` makes every stage serial. No task raises an analysis error: the kNN analyses check
each sample's training-neighbor count before they rank. Tasks requested
from a pool thread (a count task ranking its rows, the deep re-rank of a
kNN task's short rows) run inline in that thread, so a task never waits
on its own pool.

Memory: the n×n float64 distance matrix, held by the table, plus during a
kNN analysis call the (n, depth) ranks and, per pool thread, the temporaries
of one task. Tasks are sized by what they allocate, about ``_TASK_ELEMS``
elements (1 MB of 8-byte values): a ranking task, n-wide per row,
holds 1 MB of ranks (37 rows at n = 3500). glibc gives each thread its
own malloc arena, which keeps the freed temporaries of its largest task
resident: after ``index``, ``curves`` and ``confounders`` at n = 3500 on two
cores the two arenas held 3.3 MiB (``malloc_info``). The index and the
curves hold no rank table: each task counts the ranks it made.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dataset import EmbeddingDataset

# elements that one row-block task allocates: 1 MB of 8-byte values. Each
# pool thread's malloc arena keeps the freed temporaries of its largest task
# resident; smaller tasks leave shallow rankings bound by per-task overhead
_TASK_ELEMS = 1 << 17


def _row_blocks(n_rows: int, row_elems: int) -> list[slice]:
    """Consecutive row slices for work that allocates ``row_elems`` elements
    per row, about ``_TASK_ELEMS`` elements per slice."""
    step = max(1, _TASK_ELEMS // max(row_elems, 1))
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


def _rank_rows(d: np.ndarray, depth: int) -> np.ndarray:
    """Columns of the ``depth`` smallest entries of each row, in ascending order,
    ties by ascending column index.

    Equal to ``np.argsort(d, axis=1, kind="stable")[:, :depth]`` for
    ``depth < d.shape[1]``. Shallow requests partition each row and sort only
    the depth + 1 candidates by (distance, index); deep ones use the
    (unstable, vectorized) default argsort. Either way, a row whose ties
    could reach past what was sorted exactly is re-ranked with a stable sort.
    """
    m, n = d.shape
    if depth == 0:
        return np.empty((m, 0), dtype=np.intp)
    if 8 * depth < n:
        cand = np.sort(np.argpartition(d, depth, axis=1)[:, : depth + 1], axis=1)
        vals = np.take_along_axis(d, cand, axis=1)
        by_val = np.argsort(vals, axis=1, kind="stable")
        order = np.take_along_axis(cand, by_val, axis=1)
        vals = np.take_along_axis(vals, by_val, axis=1)
        # elements outside the candidates are >= the last candidate value
        tied = vals[:, depth - 1] == vals[:, depth]
    else:
        order = np.argsort(d, axis=1)[:, : depth + 1]
        vals = np.take_along_axis(d, order, axis=1)
        tied = (vals[:, 1:] == vals[:, :-1]).any(axis=1)
    order = order[:, :depth]
    if tied.any():
        order[tied] = np.argsort(d[tied], axis=1, kind="stable")[:, :depth]
    return order


def _group_codes(group_ids) -> np.ndarray:
    """(n,) intp code per group id; -1 for the empty (ungrouped) id."""
    index: dict[str, int] = {}
    return np.array([-1 if g == "" else index.setdefault(g, len(index))
                     for g in group_ids], dtype=np.intp)


def _rank_block(d: np.ndarray, rows: np.ndarray, depth: int) -> np.ndarray:
    """Rows ``rows`` of ``d`` ranked to ``depth`` columns."""
    if (np.diff(rows) == 1).all():  # consecutive rows: rank a view, not a copy
        return _rank_rows(d[rows[0]:rows[0] + len(rows)], depth)
    return _rank_rows(d[rows], depth)


def _workers() -> int:
    """Cores this process may run on: the threads that run row-block tasks."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# set in each pool thread: what a task asks of the pool runs inline there
_pool_thread = threading.local()


def _join_pool() -> None:
    _pool_thread.inside = True


@functools.lru_cache(maxsize=None)
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process-wide pool of ``workers`` threads, made on first use."""
    return ThreadPoolExecutor(workers, thread_name_prefix="embrobust-rank",
                              initializer=_join_pool)


if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's pool threads: it makes its own
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _map_blocks(task, blocks: list) -> Iterator:
    """``task(b)`` for each of ``blocks``, in order, the tasks spread over
    every usable core.

    Tasks write only their own rows of shared outputs; numpy's sorts,
    gathers and elementwise loops release the GIL. With one worker or one
    block, or when called from a pool thread, the tasks run in the calling
    thread: a pool thread that waited on tasks queued behind it could wait
    forever. Results come as they are read, so a caller that folds them in
    holds a few at a time; read every one, as a task's exception is raised
    when its result is read.
    """
    workers = _workers()
    if workers == 1 or len(blocks) == 1 or getattr(_pool_thread, "inside", False):
        return map(task, blocks)
    return _pool(workers).map(task, blocks)


def _rank(d: np.ndarray, rows: np.ndarray, depth: int) -> np.ndarray:
    """``_rank_block`` over ``rows``, a task-sized block at a time, on every
    usable core.

    A row's ranks do not depend on its block or thread, so they are the
    same for any worker count. Rows that fit one task, such as a task's own
    rows ranked inline in a pool thread, are ranked without a copy.
    """
    # a task allocates its rows' n-wide ranks
    blocks = _row_blocks(len(rows), d.shape[1])
    if len(blocks) == 1:
        return _rank_block(d, rows, depth)
    out = np.empty((len(rows), depth), dtype=np.intp)

    def task(blk: slice) -> None:
        out[blk] = _rank_block(d, rows[blk], depth)

    list(_map_blocks(task, blocks))
    return out


@dataclass(frozen=True, eq=False)
class NeighborTable:
    """Per-sample ranking of the other samples by ascending distance.

    ``ranked(rows, depth)[i, j]`` is the index of the (j+1)-th nearest
    neighbor (self excluded) of the i-th given row, distance ties broken by
    ascending sample index. Nothing is ranked up front: every call ranks
    its rows from ``distances``, the n×n matrix, +inf on the diagonal and at
    every excluded pair; ``groups`` holds the group codes of the exclusion
    (None without it).

    Row i's first ``limit[i]`` ranks are its neighbors: n-1 of them without
    group exclusion, fewer by its same-group others with it. The columns
    past them hold its +inf entries (itself and those others) by ascending index.
    """

    limit: np.ndarray      # (n,) intp
    distances: np.ndarray  # (n, n) float64
    groups: np.ndarray | None

    @property
    def n(self) -> int:
        return self.distances.shape[0]

    @property
    def max_rank(self) -> int:
        """Largest rank k valid for every sample."""
        return int(self.limit.min())

    def ranked(self, rows, depth: int) -> np.ndarray:
        """The first ``depth`` columns (at most n-1) of the given rows' rankings."""
        return _rank(self.distances, np.arange(self.n)[rows], min(depth, self.n - 1))


@dataclass(frozen=True, eq=False)
class FrequencyCurves:
    """Fraction of samples whose j-th neighbor shares the label, j = 1..len."""

    f_bio: np.ndarray
    f_conf: np.ndarray

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(1, len(self.f_bio) + 1)


def _check_rows(bad: np.ndarray, message: str) -> None:
    """Raise ``ValueError(message)`` naming the first row where ``bad`` holds."""
    if bad.any():
        raise ValueError(message.format(row=int(np.nonzero(bad)[0][0])))


def pairwise_distances(vectors: np.ndarray, metric: str = "cosine") -> np.ndarray:
    """Dense symmetric distance matrix with an exact-zero diagonal.

    Float32 vectors are widened to float64 inside the first operations
    that read them, which is exact, so the result has the bits that a
    float64 copy of them gives, without holding that copy. Raises
    ``ValueError``, naming the first such row, for a vector whose distances
    would not be finite: under cosine one whose norm is zero or overflows,
    under euclidean one whose squared norm exceeds a quarter of float64's
    largest value.
    """
    v = np.asarray(vectors)
    if metric == "cosine":
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.multiply(v, v, dtype=np.float64).sum(axis=1))
        _check_rows(norms == 0.0, "zero-norm vector at row {row}")
        _check_rows(~np.isfinite(norms), "vector at row {row}: its norm is not a finite float64")
        unit = np.divide(v, norms[:, None], dtype=np.float64)
        del v
        # the symmetric product: a row-blocked one differs in the last bit
        d = unit @ unit.T
        del unit
        np.subtract(1.0, d, out=d)
        np.clip(d, 0.0, 2.0, out=d)
    elif metric == "euclidean":
        v = np.asarray(v, dtype=np.float64)
        with np.errstate(over="ignore"):
            sq = (v * v).sum(axis=1)
        # then |v_i.v_j| <= max/4 too, and each (sq_i + sq_j) - 2 v_i.v_j is finite
        _check_rows(~(sq <= np.finfo(np.float64).max / 4), "vector at row {row}: its "
                    "squared norm exceeds a quarter of float64's largest value")
        d = v @ v.T
        d *= 2.0
        # (sq_i + sq_j) - 2 v_i.v_j in place, a row block at a time: one n×n array
        for rows in _row_blocks(len(d), len(d)):
            np.subtract(sq[rows, None] + sq[None, :], d[rows], out=d[rows])
        np.clip(d, 0.0, None, out=d)
        np.sqrt(d, out=d)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    np.fill_diagonal(d, 0.0)
    return d


def build_neighbor_table(
    ds: EmbeddingDataset,
    metric: str = "cosine",
    exclude_same_group: bool = False,
) -> NeighborTable:
    """The table that ranks every sample's cross-distances exactly on demand.

    With ``exclude_same_group``, every pair of samples sharing a non-empty
    group id gets distance +inf, in place, like the diagonal: each row's
    first ``limit[i]`` ranks are its allowed neighbors in (distance, index)
    order, and no ranking task needs the groups.
    """
    n = ds.n
    d = pairwise_distances(ds.vectors, metric=metric)
    np.fill_diagonal(d, np.inf)
    groups = _group_codes(ds.group_ids) if exclude_same_group else None
    limit = np.full(n, n - 1, dtype=np.intp)
    if groups is not None:
        for rows in _row_blocks(n, n):
            same = (groups[rows, None] == groups[None, :]) & (groups[rows, None] >= 0)
            d[rows][same] = np.inf
        grouped = groups >= 0
        sizes = np.bincount(groups[grouped])
        limit[grouped] -= sizes[groups[grouped]] - 1

    for arr in (limit, d, groups):
        if arr is not None:
            arr.flags.writeable = False
    return NeighborTable(limit, d, groups)


def _same_label_counts(ds: EmbeddingDataset, nt: NeighborTable, depth: int) -> np.ndarray:
    """(2, depth) integer counts of the samples whose j-th neighbor shares
    the biological label (row 0) and the confounder label (row 1), j = 1..depth.

    Each row-block task ranks its rows and returns their per-rank counts,
    so no (n, depth) table is held.
    """
    def counts(rows: slice) -> np.ndarray:
        neigh = nt.ranked(rows, depth)
        return np.stack([(codes[neigh] == codes[rows, None]).sum(axis=0)
                         for codes in (ds.bio_codes, ds.conf_codes)])

    # a task allocates its rows' n-wide ranking temporaries and their two
    # depth-wide label gathers
    return sum(_map_blocks(counts, _row_blocks(nt.n, nt.n + 2 * depth)))


def frequency_curves(ds: EmbeddingDataset, nt: NeighborTable) -> FrequencyCurves:
    """Per-rank same-label fractions over ranks 1..nt.max_rank.

    Raises ``ValueError`` when no rank is usable by every sample, which
    group exclusion causes when one group holds every sample.
    """
    depth = nt.max_rank
    if depth == 0:
        raise ValueError("no neighbor rank is usable by every sample under group "
                         f"exclusion (one group holds all {nt.n} samples)")
    f_bio, f_conf = _same_label_counts(ds, nt, depth) / nt.n
    f_bio.flags.writeable = False
    f_conf.flags.writeable = False
    return FrequencyCurves(f_bio, f_conf)
