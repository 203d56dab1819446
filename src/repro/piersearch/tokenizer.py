"""Filename tokenization and stop words.

Keywords describing an item are the terms of its filename (Section 3.1).
Stop words — including filesharing-specific ones like "mp3" that appear in
almost every filename — are not indexed, exactly as the paper notes.
"""

from __future__ import annotations

import re

# Generic English stop words plus the filesharing-specific ones the paper
# calls out ("MP3", "the"). Extensions are stripped separately but also
# listed here in case they appear inside names.
STOP_WORDS: frozenset[str] = frozenset(
    {
        "the", "a", "an", "of", "and", "or", "to", "in", "on", "at", "by",
        "for", "with", "from", "feat", "ft", "vs", "mix", "remix",
        "mp3", "avi", "mpg", "mpeg", "wav", "wma", "ogg", "zip", "rar",
        "exe", "iso", "jpg", "gif", "txt", "pdf", "doc",
    }
)

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")
_MIN_TOKEN_LENGTH = 2


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercase alphanumeric tokens, in order."""
    return _TOKEN_PATTERN.findall(text.lower())


def extract_keywords(filename: str) -> list[str]:
    """Indexable keywords of ``filename``: tokens minus stop words.

    Order is preserved and duplicates are removed (an Inverted tuple's
    primary key is (keyword, fileID), so each keyword indexes a file once).
    Single-character tokens are dropped as noise.
    """
    keywords: list[str] = []
    seen: set[str] = set()
    for token in tokenize(filename):
        if len(token) < _MIN_TOKEN_LENGTH:
            continue
        if token in STOP_WORDS:
            continue
        if token in seen:
            continue
        seen.add(token)
        keywords.append(token)
    return keywords
