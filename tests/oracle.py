"""Reference answers for differential tests.

:func:`oracle_items` answers a conjunctive keyword query by reading
posting lists and Item tuples straight out of the ring owners' stores —
no plan, no operators, no messages, no virtual time — so the answer of
any strategy at any batching can be checked against it.
:func:`nested_loop_join` is the same idea one level down: the equi-join
of two row lists by comparing every pair, with no hash table to get
wrong.
"""

from repro.pier.catalog import table_key
from repro.piersearch.tokenizer import extract_keywords


def oracle_items(catalog, terms):
    """Item rows whose filename carries every indexable keyword of ``terms``."""

    def stored(table, index_value):
        owner = catalog.network.owner_of(table_key(table, index_value))
        return catalog.table(table).fetch_local(owner, index_value)

    keywords = {keyword for term in terms for keyword in extract_keywords(term)}
    if not keywords:
        return []
    postings = [{row["fileID"] for row in stored("Inverted", k)} for k in keywords]
    items = [
        item
        for file_id in sorted(set.intersection(*postings))
        for item in stored("Item", file_id)
    ]
    return [i for i in items if keywords <= set(extract_keywords(i["filename"]))]


def nested_loop_join(left, right, column):
    """Equi-join of two row lists on ``column``, every pair compared.

    Output rows merge both sides; the right side wins column-name
    collisions, as in the production join.
    """
    return [{**l, **r} for l in left for r in right if l[column] == r[column]]
