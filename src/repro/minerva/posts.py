"""Directory payloads: per-term Posts and PeerLists (Section 4).

"Every peer publishes statistics, denoted as Posts, about every term in
its local index to the directory.  The peer onto which the term is hashed
maintains a PeerList of all postings for this term from all peers across
the network.  Posts contain contact information about the peer who posted
the summary together with statistics to calculate IR-style relevance
measures for a term, e.g., the length of the inverted index list for the
term, the maximum or average score among the term's inverted list
entries, etc."

In this reproduction a Post additionally carries the per-term docID
synopsis (Section 1.2) and, optionally, the score-histogram synopsis of
Section 7.1.

Storage is columnar (:mod:`repro.synopses.columnstore`): a PeerList is a
thin view over a :class:`~repro.synopses.columnstore.TermColumns` —
packed metadata arrays plus one matrix of packed synopses — so 10^5-peer
directories fit in contiguous memory and the routing fast path attaches
to the stored matrices directly.  Every write lands in the columns:
``add(post)`` packs one Post, ``add_batch`` a columnar
:class:`PostBatch`, ``remove`` drops a peer's row.  ``Post`` objects
materialize lazily (and are cached) only for readers that walk per-peer
objects — the naive reference oracle and the experiments; the
``posts`` mapping view is read-only.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from ..synopses.base import SetSynopsis
from ..synopses.columnstore import PeerIdTable, SynopsisColumn, TermColumns
from ..synopses.histogram import ScoreHistogramSynopsis

__all__ = ["Post", "PostBatch", "PeerList", "POST_STATS_BITS"]

#: Wire size of a Post's fixed statistics block: peer contact info plus
#: (cdf, max_score, avg_score, |V|) — 5 fields at 32 bits each.
POST_STATS_BITS = 160


@dataclass(frozen=True)
class Post:
    """One peer's published summary for one term."""

    peer_id: str
    term: str
    cdf: int
    max_score: float
    avg_score: float
    term_space_size: int
    synopsis: SetSynopsis | None = None
    histogram: ScoreHistogramSynopsis | None = None

    def __post_init__(self) -> None:
        if self.cdf < 0:
            raise ValueError(f"cdf must be >= 0, got {self.cdf}")
        if self.max_score < 0.0 or self.avg_score < 0.0:
            raise ValueError("scores must be >= 0")
        if self.term_space_size < 0:
            raise ValueError(
                f"term_space_size must be >= 0, got {self.term_space_size}"
            )

    @property
    def size_in_bits(self) -> int:
        """Wire size: fixed stats plus any attached synopses."""
        bits = POST_STATS_BITS
        if self.synopsis is not None:
            bits += self.synopsis.size_in_bits
        if self.histogram is not None:
            bits += self.histogram.size_in_bits
        return bits


@dataclass(frozen=True)
class PostBatch:
    """Posts in columns: row ``i`` is ``peer_ids[i]``'s Post for ``terms[i]``.

    The form :meth:`~repro.minerva.directory.Directory.publish_batch`
    ingests.  ``synopses`` is either packed — a column
    (:meth:`~repro.synopses.columnstore.SynopsisColumn.holding`) whose
    row ``i`` is post ``i``'s synopsis, as the batched builders
    (:meth:`~repro.synopses.factory.SynopsisSpec.build_rows`) produce it
    — or one synopsis object (or ``None``) per post.  ``histograms`` is
    ``None`` when no post carries one.
    """

    peer_ids: Sequence[str]
    terms: Sequence[str]
    cdf: np.ndarray
    max_score: np.ndarray
    avg_score: np.ndarray
    term_space_size: np.ndarray
    synopses: SynopsisColumn | Sequence[SetSynopsis | None]
    histograms: Sequence[ScoreHistogramSynopsis | None] | None = None

    def __post_init__(self) -> None:
        synopses = self.synopses
        lengths = [
            len(self.peer_ids),
            len(self.terms),
            len(self.cdf),
            len(self.max_score),
            len(self.avg_score),
            len(self.term_space_size),
            synopses.capacity if isinstance(synopses, SynopsisColumn) else len(synopses),
            len(self.peer_ids if self.histograms is None else self.histograms),
        ]
        if len(set(lengths)) != 1:
            raise ValueError(f"PostBatch columns differ in length: {lengths}")

    @classmethod
    def from_posts(cls, posts: Sequence[Post]) -> "PostBatch":
        """The batch of ``posts``, in order (synopses stay objects)."""
        histograms = [post.histogram for post in posts]
        return cls(
            peer_ids=[post.peer_id for post in posts],
            terms=[post.term for post in posts],
            cdf=np.array([post.cdf for post in posts], dtype=np.int64),
            max_score=np.array([post.max_score for post in posts], dtype=np.float64),
            avg_score=np.array([post.avg_score for post in posts], dtype=np.float64),
            term_space_size=np.array(
                [post.term_space_size for post in posts], dtype=np.int64
            ),
            synopses=[post.synopsis for post in posts],
            histograms=(
                histograms
                if any(histogram is not None for histogram in histograms)
                else None
            ),
        )

    def select(self, rows: Sequence[int]) -> "PostBatch":
        """The posts at ``rows``, in that order."""
        index = np.asarray(rows, dtype=np.int64)
        synopses = self.synopses
        return PostBatch(
            peer_ids=[self.peer_ids[row] for row in rows],
            terms=[self.terms[row] for row in rows],
            cdf=self.cdf[index],
            max_score=self.max_score[index],
            avg_score=self.avg_score[index],
            term_space_size=self.term_space_size[index],
            synopses=(
                synopses.take(index)
                if isinstance(synopses, SynopsisColumn)
                else [synopses[row] for row in rows]
            ),
            histograms=(
                None
                if self.histograms is None
                else [self.histograms[row] for row in rows]
            ),
        )

    @property
    def size_in_bits(self) -> int:
        """Wire size of all posts: the sum of their ``Post.size_in_bits``."""
        synopses = self.synopses
        if isinstance(synopses, SynopsisColumn):
            synopsis_bits = len(self) * synopses.bits_per_row
        else:
            synopsis_bits = sum(
                synopsis.size_in_bits for synopsis in synopses if synopsis is not None
            )
        histogram_bits = sum(
            histogram.size_in_bits
            for histogram in self.histograms or ()
            if histogram is not None
        )
        return POST_STATS_BITS * len(self) + synopsis_bits + histogram_bits

    def __len__(self) -> int:
        return len(self.peer_ids)


class _PostsView(Mapping[str, Post]):
    """Read-only ``peer_id -> Post`` mapping over the columns.

    Keeps the ``peer_list.posts`` read surface (lookups, iteration in
    row order) while the storage stays packed; writes go through
    :meth:`PeerList.add`, :meth:`PeerList.add_batch` and
    :meth:`PeerList.remove`.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "PeerList") -> None:
        self._owner = owner

    def __getitem__(self, peer_id: str) -> Post:
        post = self._owner.get(peer_id)
        if post is None:
            raise KeyError(peer_id)
        return post

    def __iter__(self) -> Iterator[str]:
        columns = self._owner.columns
        table = columns.table
        for interned in columns.interned_ids().tolist():
            yield table.name(interned)

    def __len__(self) -> int:
        return len(self._owner.columns)


class PeerList:
    """All Posts the directory holds for one term, stored columnar."""

    __slots__ = ("term", "_columns", "_cache")

    def __init__(
        self,
        term: str,
        posts: dict[str, Post] | None = None,
        *,
        peer_table: PeerIdTable | None = None,
    ) -> None:
        self.term = term
        table = peer_table if peer_table is not None else PeerIdTable()
        self._columns = TermColumns(term, table)
        #: Lazily materialized Posts (dropped on overwrite/removal).
        self._cache: dict[str, Post] = {}
        if posts:
            for post in posts.values():
                self.add(post)

    @classmethod
    def from_rows(
        cls,
        term: str,
        table: PeerIdTable,
        parts: Sequence[tuple["PeerList", np.ndarray]],
    ) -> "PeerList":
        """The given rows of other lists, concatenated in order.

        Each part is ``(source, rows)``; the rows are copied column to
        column (:meth:`TermColumns.from_rows`), so no Post is rebuilt or
        re-packed.
        """
        peer_list = cls.__new__(cls)
        peer_list.term = term
        peer_list._columns = TermColumns.from_rows(
            term, table, [(source.columns, rows) for source, rows in parts]
        )
        peer_list._cache = {}
        return peer_list

    # -- columnar surface -------------------------------------------------

    @property
    def columns(self) -> TermColumns:
        """The packed per-term column store backing this list."""
        return self._columns

    @property
    def peer_table(self) -> PeerIdTable:
        return self._columns.table

    @property
    def posts(self) -> _PostsView:
        """Mapping view ``peer_id -> Post`` (materializes lazily)."""
        return _PostsView(self)

    # -- mutation ---------------------------------------------------------

    def add(self, post: Post) -> None:
        """Insert or refresh a peer's Post (re-posting overwrites).

        Only the packed columns keep it; ``get`` rebuilds an equal Post
        on demand.
        """
        if post.term != self.term:
            raise ValueError(
                f"post for term {post.term!r} added to PeerList of {self.term!r}"
            )
        self._columns.upsert(
            post.peer_id,
            post.cdf,
            post.max_score,
            post.avg_score,
            post.term_space_size,
            post.synopsis,
            post.histogram,
        )
        self._cache.pop(post.peer_id, None)

    def add_batch(self, batch: PostBatch, interned: Sequence[int]) -> None:
        """Insert or refresh every post of ``batch`` (directory ingest).

        ``interned`` holds the posters' ids in :attr:`peer_table`.  The
        result equals ``add(post)`` of each post in order
        (:meth:`TermColumns.upsert_rows`), with no Post built per row.
        """
        stray = [term for term in batch.terms if term != self.term]
        if stray:
            raise ValueError(
                f"post for term {stray[0]!r} added to PeerList of {self.term!r}"
            )
        self._columns.upsert_rows(
            interned,
            batch.cdf,
            batch.max_score,
            batch.avg_score,
            batch.term_space_size,
            batch.synopses,
            batch.histograms,
        )
        if self._cache:
            for peer_id in batch.peer_ids:
                self._cache.pop(peer_id, None)

    def remove(self, peer_id: str) -> bool:
        """Drop ``peer_id``'s Post; False if the list holds none."""
        removed = self._columns.remove(peer_id)
        if removed:
            self._cache.pop(peer_id, None)
        return removed

    # -- lookups ----------------------------------------------------------

    def row_of(self, peer_id: str) -> int | None:
        """The row of :attr:`columns` holding ``peer_id``'s Post, if any."""
        interned = self._columns.table.lookup(peer_id)
        return None if interned is None else self._columns.row_for(interned)

    def get(self, peer_id: str) -> Post | None:
        cached = self._cache.get(peer_id)
        if cached is not None:
            return cached
        row = self.row_of(peer_id)
        return None if row is None else self._materialize(row, peer_id)

    def _materialize(self, row: int, peer_id: str) -> Post:
        name, cdf, max_score, avg_score, term_space, synopsis, histogram = (
            self._columns.post_fields(row)
        )
        post = Post(
            peer_id=name,
            term=self.term,
            cdf=cdf,
            max_score=max_score,
            avg_score=avg_score,
            term_space_size=term_space,
            synopsis=synopsis,
            histogram=histogram,
        )
        self._cache[peer_id] = post
        return post

    def _post_at(self, row: int) -> Post:
        peer_id = self._columns.table.name(int(self._columns.interned_ids()[row]))
        cached = self._cache.get(peer_id)
        if cached is not None:
            return cached
        return self._materialize(row, peer_id)

    @property
    def peer_ids(self) -> frozenset[str]:
        columns = self._columns
        return frozenset(columns.table.names(columns.interned_ids()))

    @property
    def collection_frequency(self) -> int:
        """Number of peers holding the term — CORI's ``cf_t``."""
        return len(self._columns)

    @property
    def size_in_bits(self) -> int:
        return self.rows_size_in_bits(None)

    def rows_size_in_bits(self, rows: np.ndarray | None) -> int:
        """Wire bits of the posts at ``rows`` (every post when ``None``).

        Read in place from the columns: the same integer as the
        ``size_in_bits`` of ``PeerList.from_rows(term, table, [(self,
        rows)])``, with no copy.
        """
        columns = self._columns
        count = len(columns) if rows is None else len(rows)
        return (
            POST_STATS_BITS * count
            + columns.synopsis_bits(rows)
            + columns.histogram_bits(rows)
        )

    def top_by_quality(self, count: int) -> list[Post]:
        """The ``count`` posts with highest max-score (a cheap quality cut).

        Section 4: "the query initiator can decide to not retrieve the
        complete PeerLists, but only a subset, say the top-k peers from
        each list based on IR relevance measures".  The quality order is
        one cached lexsort over the packed score columns, reused across
        calls until the list mutates.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        order = self._columns.quality_order()
        return [self._post_at(row) for row in order[:count].tolist()]

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Post]:
        for row in range(len(self._columns)):
            yield self._post_at(row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeerList):
            return NotImplemented
        return self.term == other.term and dict(self.posts) == dict(other.posts)

    def __repr__(self) -> str:
        return f"PeerList(term={self.term!r}, peers={len(self)})"

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        return {"term": self.term, "columns": self._columns}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.term = state["term"]
        self._columns = state["columns"]
        self._cache = {}
