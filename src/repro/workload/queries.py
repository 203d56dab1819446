"""Query workload generation.

Queries in the Gnutella trace are keyword searches correlated with content
popularity: most queries target popular items, but a long tail of queries
targets rare items — 41% of single-node queries returned 10 or fewer
results. We reproduce that by drawing a *target item* with probability
that grows sublinearly with its replica count (popular content is queried
more, but not proportionally more), then issuing 1-3 of that item's
keywords as the query.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.errors import WorkloadError
from repro.common.rng import make_rng
from repro.piersearch.tokenizer import extract_keywords
from repro.workload.library import CatalogItem, ContentLibrary


@dataclass(frozen=True)
class Query:
    """A keyword query: the terms plus the item that inspired it."""

    query_id: int
    terms: tuple[str, ...]
    target_filename: str

    def __str__(self) -> str:
        return " ".join(self.terms)


@dataclass
class QueryWorkload:
    """An ordered list of queries to replay."""

    queries: list[Query]

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def distinct_terms(self) -> set[str]:
        terms: set[str] = set()
        for query in self.queries:
            terms.update(query.terms)
        return terms


#: share of queries for content that exists nowhere: the paper found 6%
#: of queries had no results even in the Union-of-30
MISS_FRACTION = 0.06


def generate_workload(
    library: ContentLibrary,
    num_queries: int,
    popularity_exponent: float = 0.5,
    rare_boost: float = 0.35,
    max_terms: int = 3,
    rng: random.Random | int | None = None,
) -> QueryWorkload:
    """Generate ``num_queries`` keyword queries over ``library``.

    Each query picks a target item and takes 1..``max_terms`` of its
    keywords. Targets are drawn with weight ``replication**exponent``
    mixed with a uniform component of mass ``rare_boost`` — the uniform
    component is what puts substantial query mass on the long tail, as the
    paper observes ("while individual rare items in the tail may not be
    requested frequently, they represent a substantial fraction of the
    query workload").

    :data:`MISS_FRACTION` of queries ask for content that exists nowhere
    in the network (terms outside every filename): the paper found 6% of
    queries had no results even in the Union-of-30, i.e. genuinely had no
    matches available.
    """
    if num_queries < 1:
        raise WorkloadError(f"need at least one query, got {num_queries}")
    if not 0.0 <= rare_boost <= 1.0:
        raise WorkloadError(f"rare_boost must be in [0,1], got {rare_boost}")
    rng = make_rng(rng)
    items = library.items
    weights = [item.replication**popularity_exponent for item in items]

    queries: list[Query] = []
    for query_id in range(num_queries):
        if rng.random() < MISS_FRACTION:
            queries.append(_miss_query(query_id, rng))
        elif rng.random() < rare_boost and library.family_items:
            # A tail-targeted query: the user searches for an obscure
            # source by its identifying term pair, matching the family of
            # rare files that share it.
            item = rng.choice(library.family_items)
            queries.append(
                Query(
                    query_id=query_id,
                    terms=item.family_terms,
                    target_filename=item.filename,
                )
            )
        else:
            item = rng.choices(items, weights=weights, k=1)[0]
            queries.append(_query_for_item(query_id, item, max_terms, rng))
    return QueryWorkload(queries)


def _miss_query(query_id: int, rng: random.Random) -> Query:
    """A query for content that does not exist anywhere in the network.

    Uses a term alphabet (``q``/``x``/digit-heavy) disjoint from the
    pseudo-word generator's output, so it can never match a filename.
    """
    term = "qx" + "".join(rng.choice("0123456789qx") for _ in range(8))
    return Query(query_id=query_id, terms=(term,), target_filename="")


def _query_for_item(
    query_id: int, item: CatalogItem, max_terms: int, rng: random.Random
) -> Query:
    keywords = extract_keywords(item.filename)
    if not keywords:
        raise WorkloadError(f"item {item.filename!r} has no indexable keywords")
    count = min(len(keywords), rng.randint(1, max_terms))
    start = rng.randint(0, len(keywords) - count)
    terms = tuple(keywords[start : start + count])
    return Query(query_id=query_id, terms=terms, target_filename=item.filename)
