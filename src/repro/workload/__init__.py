"""Synthetic Gnutella workload generation.

The paper's analyses are driven by traces captured from the live Gnutella
network (315,546 files at 75,129 hosts; 700 replayed queries; 38,900
distinct terms). We cannot capture those traces offline, so this package
regenerates the *distributions* the analyses consume: a term vocabulary
with Zipf-skewed frequencies (:mod:`repro.workload.filenames`), a content
library with long-tailed replication (:mod:`repro.workload.library`), a
query workload correlated with content popularity
(:mod:`repro.workload.queries`). DESIGN.md documents the substitution.
"""

from repro.workload.filenames import FilenameGenerator, Vocabulary
from repro.workload.library import CatalogItem, ContentLibrary, Placement, SharedFile
from repro.workload.queries import Query, QueryWorkload, generate_workload

__all__ = [
    "FilenameGenerator",
    "Vocabulary",
    "CatalogItem",
    "ContentLibrary",
    "Placement",
    "SharedFile",
    "Query",
    "QueryWorkload",
    "generate_workload",
]
