"""Filename matching and the per-ultrapeer content index.

An ultrapeer answers queries on behalf of its leaves: each leaf publishes
its file list to the ultrapeer on connect (Gnutella 0.6), so query
processing never touches leaves. Which *filenames* satisfy a query is a
fact about the network's content, not about one ultrapeer, so it is
resolved once, by the :class:`FilenameMatcher` every index of a network
shares; an index only picks out its own files among the matching names.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.piersearch.tokenizer import tokenize
from repro.workload.library import SharedFile

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
    ``GnutellaNetwork.all_results_for([])`` scans to; a servent drops such
    a query, so ``UltrapeerIndex.match([])`` answers ``[]`` itself.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._lowered: list[str] = []
        self._known: set[str] = set()
        self._token_index: dict[str, list[int]] = {}
        self._memo: dict[tuple[str, ...], tuple[tuple[str, ...], frozenset[str]]] = {}
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
        return self._resolve(terms)[0]

    def matching_set(self, terms: Sequence[str]) -> frozenset[str]:
        """The filenames of :meth:`match`, for membership tests."""
        return self._resolve(terms)[1]

    def _resolve(self, terms: Sequence[str]) -> tuple[tuple[str, ...], frozenset[str]]:
        lowered = tuple(map(str.lower, terms))
        resolved = self._memo.get(lowered)
        if resolved is None:
            names = tuple(self._names[position] for position in self._scan(lowered))
            resolved = self._memo[lowered] = (names, frozenset(names))
        return resolved

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


class UltrapeerIndex:
    """Files searchable at one ultrapeer (its own plus its leaves').

    ``matcher`` is the network's shared matcher; without one the index
    keeps a private matcher over its own filenames.
    """

    def __init__(self, matcher: FilenameMatcher | None = None) -> None:
        self._files: list[SharedFile] = []
        self._filenames: set[str] = set()
        self._matcher = FilenameMatcher() if matcher is None else matcher

    def add_files(self, files: list[SharedFile]) -> None:
        self._files.extend(files)
        for file in files:
            if file.filename not in self._filenames:
                self._filenames.add(file.filename)
                self._matcher.add(file.filename)

    def __len__(self) -> int:
        return len(self._files)

    @property
    def files(self) -> list[SharedFile]:
        return list(self._files)

    def match(self, terms: list[str]) -> list[SharedFile]:
        """Files whose names contain every query term (substring match),
        in the order they were added; an empty query matches nothing."""
        if not terms:
            return []
        matching = self._matcher.matching_set(terms)
        if matching.isdisjoint(self._filenames):
            return []
        return [file for file in self._files if file.filename in matching]
