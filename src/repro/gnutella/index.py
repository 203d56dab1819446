"""Filename matching over a network's content.

An ultrapeer answers queries on behalf of its leaves: each leaf publishes
its file list to the ultrapeer on connect (Gnutella 0.6), so query
processing never touches leaves. Which *filenames* satisfy a query is a
fact about the network's content, not about one ultrapeer, so it is
resolved once, by the network's one :class:`FilenameMatcher`; which
ultrapeer hosts each replica of a matching name is the network's replica
host table (:meth:`repro.gnutella.network.GnutellaNetwork.replica_depths`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.piersearch.tokenizer import tokenize

#: a term inside more tokens than this is left to the substring check
UNSELECTIVE_TOKENS = 50
#: a term whose token scan is not memoised yet
_UNSCANNED = object()


class FilenameMatcher:
    """Gnutella's substring match over a growing set of distinct filenames.

    A filename matches when it contains every term, case-folded, as a
    substring. A token index narrows the candidates and the substring test
    verifies them, so the answer equals scanning every name. Answers are
    memoized per lowered-term tuple, and each term's token scan (the
    union of the postings of the tokens containing it) per term, so a
    term shared by many queries scans the tokens once; both memos are
    cleared when a new filename is learnt.

    No terms is an empty conjunction: *every* filename matches, which is
    what ``ContentMatcher.matching_filenames([])`` returns and what
    ``GnutellaNetwork.all_results_for([])`` scans to.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._lowered: list[str] = []
        self._known: set[str] = set()
        self._token_index: dict[str, list[int]] = {}
        self._memo: dict[tuple[str, ...], tuple[str, ...]] = {}
        #: lowered term -> its token scan (see :meth:`_scan_term`)
        self._term_scans: dict[str, tuple[int, ...] | None] = {}

    def add(self, filename: str) -> None:
        if filename in self._known:
            return
        self._known.add(filename)
        for token in set(tokenize(filename)):
            self._token_index.setdefault(token, []).append(len(self._names))
        self._names.append(filename)
        self._lowered.append(filename.lower())
        self._memo.clear()
        self._term_scans.clear()

    def match(self, terms: Sequence[str]) -> tuple[str, ...]:
        """Matching filenames, in the order they were added."""
        lowered = tuple(map(str.lower, terms))
        names = self._memo.get(lowered)
        if names is None:
            names = self._memo[lowered] = tuple(
                self._names[position] for position in self._scan(lowered)
            )
        return names

    def _scan(self, lowered: tuple[str, ...]) -> list[int]:
        best: tuple[int, ...] | None = None
        scans = self._term_scans
        for term in lowered:
            union = scans.get(term, _UNSCANNED)
            if union is _UNSCANNED:
                union = scans[term] = self._scan_term(term)
            if union is None:
                continue
            if not union:
                return []  # no token contains this term anywhere
            if best is None or len(union) < len(best):
                best = union
        candidates = range(len(self._names)) if best is None else best
        return [p for p in candidates if all(term in self._lowered[p] for term in lowered)]

    def _scan_term(self, term: str) -> tuple[int, ...] | None:
        """The positions, ascending, of the names with a token containing
        ``term`` (none when no token does), or None when the index cannot
        narrow by it: the term is empty, may straddle tokens, or sits
        inside more than ``UNSELECTIVE_TOKENS`` tokens. Kept for every
        query until :meth:`add`."""
        if tokenize(term) != [term]:
            return None
        postings = [rows for token, rows in self._token_index.items() if term in token]
        if len(postings) > UNSELECTIVE_TOKENS:
            return None
        return tuple(sorted(set().union(*postings)))

