"""Exhaustive generation of rooted chord diagrams and class counting.

`tally` is the one counting loop: every exhaustive count here (`census`,
`count_class`, `class_census`, `tcf_refined`, `pattern_free_count`) is a
key function over it, and so are the counts of the other modules.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Hashable, Iterator, Mapping

from .diagram import ChordDiagram
from .patterns import CYCLE_CLASSES, contains_pattern, cycle_classes, cycle_profile, in_class
from .structure import (
    is_one_terminal,
    terminal_labels,
    terminality,
    t1,
    vertex_connectivity,
)


def all_pairs(n: int, branch: int | None = None) -> Iterator[tuple[tuple[int, int], ...]]:
    """Source-sorted pair tuples, lexicographic in the partner array.
    `branch` restricts to diagrams whose first chord is (1, branch); it must
    be one of `branches(n)`."""
    if n < 0:
        raise ValueError("size must be >= 0")
    points = tuple(range(1, 2 * n + 1))
    if branch is None:
        stack = [((), points)]
    elif 2 <= branch <= 2 * n:
        stack = [(((1, branch),), points[1:branch - 1] + points[branch:])]
    else:
        raise ValueError("branch %r is not in branches(%d)" % (branch, n))
    # depth first on an explicit stack of (chords placed, free points): the
    # smallest free point is matched with every later one, and the children
    # are pushed in reverse so that they pop in that order; the last four
    # points give their three completions at once
    pop = stack.pop
    push = stack.append
    while stack:
        prefix, free = pop()
        k = len(free)
        if k > 4:
            a = free[0]
            for i in range(k - 1, 0, -1):
                push((prefix + ((a, free[i]),), free[1:i] + free[i + 1:]))
        elif k == 4:
            a, p, q, r = free
            yield prefix + ((a, p), (q, r))
            yield prefix + ((a, q), (p, r))
            yield prefix + ((a, r), (p, q))
        elif free:
            yield prefix + (free,)
        else:
            yield prefix


def all_diagrams(n: int) -> Iterator[ChordDiagram]:
    """Every size-n diagram exactly once, deterministic order."""
    trusted = ChordDiagram._trusted
    for pairs in all_pairs(n):
        yield trusted(pairs)


def tally(
    n: int,
    key: Callable[[ChordDiagram], Hashable | None],
    branch: int | None = None,
) -> dict:
    """Counts of the values of `key` over the size-n diagrams (of one branch,
    if given), in first-occurrence order; a key of None skips the diagram."""
    trusted = ChordDiagram._trusted
    counts: dict = {}
    for pairs in all_pairs(n, branch):
        k = key(trusted(pairs))
        if k is not None:
            counts[k] = counts.get(k, 0) + 1
    return counts


def branches(n: int) -> list[int]:
    """Partner choices for point 1; prefix-split handles for parallel sweeps."""
    return list(range(2, 2 * n + 1))


def _pool_size(n: int, jobs: int) -> int:
    """Worker count for a parallel sweep: never more than the CPUs or the
    branches of size n."""
    return max(1, min(jobs, os.cpu_count() or 1, len(branches(n))))


@dataclass
class CountTable:
    """Refined counts: rows key (n, *statistic values) -> count."""

    class_name: str
    statistics: tuple[str, ...]
    rows: dict[tuple, int] = field(default_factory=dict)

    def add(self, key: tuple, weight: int = 1) -> None:
        self.rows[key] = self.rows.get(key, 0) + weight

    def total(self, n: int) -> int:
        return sum(v for k, v in self.rows.items() if k[0] == n)


_STAT_FUNCS: dict[str, Callable[[ChordDiagram], int]] = {
    "t1": t1,
    "terminal-count": lambda d: len(terminal_labels(d)),
    "crossings": lambda d: d.crossings(),
    "nestings": lambda d: d.nestings(),
    "kappa": vertex_connectivity,
    "terminality": terminality,
}

STAT_NAMES = tuple(_STAT_FUNCS)


def count_class(
    n: int,
    cls: str | Callable[[ChordDiagram], bool] = "all",
    statistics: tuple[str, ...] = (),
    branch: int | None = None,
) -> CountTable:
    """Count size-n diagrams of a class, refined by the named statistics."""
    for s in statistics:
        if s not in _STAT_FUNCS:
            raise ValueError("unknown statistic: %s" % s)
    pred = cls if callable(cls) else (lambda d: in_class(d, cls))
    name = cls if isinstance(cls, str) else getattr(cls, "__name__", "custom")
    funcs = [_STAT_FUNCS[s] for s in statistics]

    def key(d: ChordDiagram) -> tuple | None:
        return (n, *(f(d) for f in funcs)) if pred(d) else None

    return CountTable(name, tuple(statistics), tally(n, key, branch))


def _count_class_branch(args) -> dict[tuple, int]:
    n, cls, statistics, b = args
    return count_class(n, cls, statistics, branch=b).rows


def count_classes_parallel(
    n: int,
    classes: tuple[str, ...],
    statistics: tuple[str, ...] = (),
    jobs: int = 1,
) -> dict[str, CountTable]:
    """count_class for each of several classes, with one pool of at most
    `jobs` workers mapping (class, branch) work items."""
    jobs = _pool_size(n, jobs)
    if jobs <= 1 or n == 0:
        return {c: count_class(n, c, statistics) for c in classes}
    work = [(n, c, statistics, b) for c in classes for b in branches(n)]
    with multiprocessing.Pool(jobs) as pool:
        parts = pool.map(_count_class_branch, work)
    tables = {c: CountTable(c, tuple(statistics)) for c in classes}
    for (_, c, _, _), rows in zip(work, parts):
        for k, v in rows.items():
            tables[c].add(k, v)
    return tables


def count_class_parallel(
    n: int,
    cls: str = "all",
    statistics: tuple[str, ...] = (),
    jobs: int = 1,
) -> CountTable:
    return count_classes_parallel(n, (cls,), statistics, jobs)[cls]


VARIANTS = ("all", "connected", "one-terminal")


def _variant_fold(
    n: int,
    member: Callable[[ChordDiagram], tuple[str, ...]],
    classes: tuple[str, ...],
) -> dict[str, dict[str, int]]:
    """class -> {all, connected, one-terminal} counts of size n, where
    `member` names the classes a diagram belongs to."""

    def key(d: ChordDiagram) -> tuple | None:
        inside = member(d)
        if not inside:
            return None
        # how many of VARIANTS the diagram counts towards
        if not d.is_connected():
            return inside, 1
        return inside, 3 if is_one_terminal(d) else 2

    out = {c: dict.fromkeys(VARIANTS, 0) for c in classes}
    for (inside, depth), count in tally(n, key).items():
        for c in inside:
            for v in VARIANTS[:depth]:
                out[c][v] += count
    return out


@lru_cache(maxsize=None)
def census(n: int) -> Mapping[str, int]:
    """Counts of all / connected / one-terminal diagrams of size n. Cached,
    and read-only."""
    return MappingProxyType(_variant_fold(n, lambda d: ("all",), ("all",))["all"])


# classes whose membership falls out of one crossing-graph cycle profile
PROFILE_CLASSES = ("all", *CYCLE_CLASSES, "noncrossing", "nonnesting")


def _profile_member(d: ChordDiagram) -> tuple[str, ...]:
    flags = {
        "all": True,
        **cycle_classes(cycle_profile(d)),
        "noncrossing": d.is_noncrossing(),
        "nonnesting": d.is_nonnesting(),
    }
    return tuple(c for c, ok in flags.items() if ok)


@lru_cache(maxsize=None)
def class_census(n: int) -> Mapping[str, Mapping[str, int]]:
    """One sweep over size-n diagrams scoring every profile class at once;
    returns class -> {all, connected, one-terminal} counts. Cached, and
    read-only."""
    out = _variant_fold(n, _profile_member, PROFILE_CLASSES)
    return MappingProxyType({c: MappingProxyType(v) for c, v in out.items()})


@lru_cache(maxsize=None)
def tcf_refined(n: int) -> Mapping[int, int]:
    """Connected top-cycle-free counts of size n, refined by t1. Cached, and
    read-only."""

    def key(d: ChordDiagram) -> int | None:
        return t1(d) if d.is_connected() and in_class(d, "top-cycle-free") else None

    return MappingProxyType(tally(n, key))


@lru_cache(maxsize=None)
def pattern_free_count(n: int, pattern: ChordDiagram) -> int:
    """Size-n diagrams with no induced copy of `pattern`. Cached."""
    return tally(n, lambda d: contains_pattern(d, pattern)).get(False, 0)
