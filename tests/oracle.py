"""Reference answer to a conjunctive keyword query, for differential tests.

Reads posting lists and Item tuples straight out of the ring owners'
stores — no plan, no operators, no messages, no virtual time — so the
answer of any strategy at any batching can be checked against it.
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
