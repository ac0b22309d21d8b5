"""Exhaustive generation of rooted chord diagrams and class counting."""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from .diagram import ChordDiagram
from .patterns import CYCLE_CLASSES, cycle_classes, cycle_profile, in_class
from .structure import (
    terminal_labels,
    terminality,
    t1,
    vertex_connectivity,
)


def _gen_pairs(points: tuple[int, ...]) -> Iterator[list[tuple[int, int]]]:
    # match the smallest free point with every later one, in order; this
    # walks partner arrays lexicographically
    if not points:
        yield []
        return
    a = points[0]
    for i in range(1, len(points)):
        b = points[i]
        rest = points[1:i] + points[i + 1:]
        for tail in _gen_pairs(rest):
            tail.append((a, b))
            yield tail


def all_pairs(n: int, branch: int | None = None) -> Iterator[list[tuple[int, int]]]:
    """Raw source-sorted pair lists, lexicographic in the partner array.
    `branch` restricts to diagrams whose first chord is (1, branch)."""
    if n < 0:
        raise ValueError("size must be >= 0")
    if n == 0:
        yield []
        return
    points = tuple(range(1, 2 * n + 1))
    if branch is None:
        for pairs in _gen_pairs(points):
            pairs.reverse()
            yield pairs
    else:
        rest = tuple(p for p in points[1:] if p != branch)
        for tail in _gen_pairs(rest):
            tail.append((1, branch))
            tail.reverse()
            yield tail


def all_diagrams(n: int) -> Iterator[ChordDiagram]:
    """Every size-n diagram exactly once, deterministic order."""
    trusted = ChordDiagram._trusted
    for pairs in all_pairs(n):
        yield trusted(pairs)


def branches(n: int) -> list[int]:
    """Partner choices for point 1; prefix-split handles for parallel sweeps."""
    return list(range(2, 2 * n + 1))


def _pool_size(n: int, jobs: int) -> int:
    """Worker count for a parallel sweep: never more than the CPUs or the
    branches of size n."""
    return max(1, min(jobs, os.cpu_count() or 1, len(branches(n))))


@lru_cache(maxsize=None)
def census(n: int) -> Mapping[str, int]:
    """Counts of all / connected / one-terminal diagrams of size n. Cached,
    and read-only."""
    total = conn = one_term = 0
    for d in all_diagrams(n):
        total += 1
        if d.is_connected():
            conn += 1
            if len(terminal_labels(d)) == 1:
                one_term += 1
    return MappingProxyType({"all": total, "connected": conn, "one-terminal": one_term})


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
    table = CountTable(name, tuple(statistics))
    trusted = ChordDiagram._trusted
    for pairs in all_pairs(n, branch):
        d = trusted(pairs)
        if not pred(d):
            continue
        key = (n,) + tuple(_STAT_FUNCS[s](d) for s in statistics)
        table.add(key)
    return table


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


# classes whose membership falls out of one crossing-graph cycle profile
PROFILE_CLASSES = ("all", *CYCLE_CLASSES, "noncrossing", "nonnesting")


@lru_cache(maxsize=None)
def class_census(n: int) -> Mapping[str, Mapping[str, int]]:
    """One sweep over size-n diagrams scoring every profile class at once;
    returns class -> {all, connected, one-terminal} counts. Cached, and
    read-only."""
    out = {c: {"all": 0, "connected": 0, "one-terminal": 0} for c in PROFILE_CLASSES}
    for d in all_diagrams(n):
        conn = d.is_connected()
        one_term = conn and len(terminal_labels(d)) == 1
        member = {
            "all": True,
            **cycle_classes(cycle_profile(d)),
            "noncrossing": d.is_noncrossing(),
            "nonnesting": d.is_nonnesting(),
        }
        for c, ok in member.items():
            if not ok:
                continue
            out[c]["all"] += 1
            if conn:
                out[c]["connected"] += 1
            if one_term:
                out[c]["one-terminal"] += 1
    return MappingProxyType({c: MappingProxyType(v) for c, v in out.items()})


@lru_cache(maxsize=None)
def tcf_refined(n: int) -> Mapping[int, int]:
    """Connected top-cycle-free counts of size n, refined by t1. Cached, and
    read-only."""
    out: dict[int, int] = {}
    for d in connected_diagrams(n):
        if in_class(d, "top-cycle-free"):
            k = t1(d)
            out[k] = out.get(k, 0) + 1
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def pattern_free_count(n: int, pattern: ChordDiagram) -> int:
    """Size-n diagrams with no induced copy of `pattern`. Cached."""
    from .patterns import contains_pattern

    return sum(1 for d in all_diagrams(n) if not contains_pattern(d, pattern))


def connected_diagrams(n: int) -> Iterator[ChordDiagram]:
    for d in all_diagrams(n):
        if d.is_connected():
            yield d
