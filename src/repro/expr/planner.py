"""Brute-force minimal-scan planning over arbitrary bitmap catalogs.

The paper's optimality notion (Section 3) measures time as the expected
number of *bitmap scans* per query.  For a catalog of stored bitmaps
``{key: value-set}`` and a target answer set ``T``, the minimal scan
cost is the size of the smallest sub-catalog from which ``T`` is
expressible by boolean operations.

A set ``T`` is expressible from bitmaps ``B_1..B_k`` iff ``T`` is a
union of the *atoms* of the partition they induce on the domain — i.e.
iff no two values with identical membership signatures straddle the
boundary of ``T``.  This reduces expressibility to a signature check,
which makes exhaustive search over sub-catalogs feasible for the small
cardinalities where we verify the paper's theorems.

:func:`plan_expression` additionally constructs a witness expression
(an OR of signature atoms), which the test-suite evaluates to confirm
the hand-derived per-scheme equations are both correct and scan-minimal.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from itertools import combinations

from repro.errors import PlanningError
from repro.expr.nodes import Expr, and_of, leaf, not_of, or_of, one, zero


def _signatures(
    keys: Sequence[Hashable],
    catalog: dict[Hashable, frozenset[int]],
    domain: Sequence[int],
) -> dict[int, tuple[bool, ...]]:
    """Membership signature of every domain value under ``keys``."""
    return {
        value: tuple(value in catalog[key] for key in keys) for value in domain
    }


def _expressible(
    keys: Sequence[Hashable],
    catalog: dict[Hashable, frozenset[int]],
    domain: Sequence[int],
    target: frozenset[int],
) -> bool:
    """True iff ``target`` is a union of atoms of the keys' partition."""
    sig = _signatures(keys, catalog, domain)
    inside = {sig[v] for v in target}
    outside = {sig[v] for v in domain if v not in target}
    return not (inside & outside)


def minimal_scan_cost(
    catalog: dict[Hashable, frozenset[int]],
    domain: Sequence[int],
    target: frozenset[int],
    max_scans: int | None = None,
) -> int:
    """Smallest number of catalog bitmaps from which ``target`` is expressible.

    Returns 0 when the target is trivial (empty or the whole domain).
    Raises :class:`PlanningError` when the target is not expressible at
    all (the catalog is not complete enough), or when ``max_scans`` is
    exceeded.
    """
    domain_set = frozenset(domain)
    if target in (frozenset(), domain_set):
        return 0
    keys = sorted(catalog, key=repr)
    limit = len(keys) if max_scans is None else min(max_scans, len(keys))
    for k in range(1, limit + 1):
        for subset in combinations(keys, k):
            if _expressible(subset, catalog, domain, target):
                return k
    raise PlanningError(
        f"target {sorted(target)} not expressible from catalog within "
        f"{limit} scans"
    )


def plan_expression(
    catalog: dict[Hashable, frozenset[int]],
    domain: Sequence[int],
    target: frozenset[int],
    max_scans: int | None = None,
) -> Expr:
    """A scan-minimal expression computing ``target`` from the catalog.

    The witness is an OR over signature atoms (each atom an AND of
    bitmaps and complements), so the number of distinct leaves equals
    :func:`minimal_scan_cost`.
    """
    domain_set = frozenset(domain)
    if target == frozenset():
        return zero()
    if target == domain_set:
        return one()

    cost = minimal_scan_cost(catalog, domain, target, max_scans)
    keys = sorted(catalog, key=repr)
    for subset in combinations(keys, cost):
        if not _expressible(subset, catalog, domain, target):
            continue
        sig = _signatures(subset, catalog, domain)
        atoms = {sig[v] for v in target}
        terms = []
        for atom in sorted(atoms):
            parts = [
                leaf(key) if present else not_of(leaf(key))
                for key, present in zip(subset, atom)
            ]
            terms.append(and_of(parts))
        return or_of(terms)
    raise PlanningError("internal error: cost found but no witness subset")

