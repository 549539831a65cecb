"""Zero-copy columnar candidate view over column-backed PeerLists.

:meth:`RoutingContext.candidates` assembles one :class:`CandidatePeer`
per peer per query — a Python dict walk that dominates query time past
~10^3 peers.  When every PeerList in the query is backed by a
:class:`~repro.synopses.columnstore.TermColumns` sharing one interned
peer-id table (the invariant :class:`~repro.minerva.directory.Directory`
maintains), candidate assembly reduces to array ops: a sorted-unique
union of interned ids, one inverse-permutation gather per term, and
vectorized CORI scoring — no per-peer Python loop.

Everything here reproduces that assembly and
:func:`~repro.routing.cori.cori_scores` bit-for-bit: gathers follow
the same dict-iteration order, CORI runs the same float operations in
the same association, and candidate order equals ``sorted(peer_ids)``
because numpy ``<U`` comparison is Python code-point order.

:class:`ColumnViewUnavailable` signals contexts the columnar path cannot
serve (peer lists on different peer-id tables, foreign synopsis
objects); :class:`~repro.core.iqn.IQNRouter` then runs the naive loop,
the reference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..synopses.columnstore import PeerIdTable, TermColumns
from .cori import CORI_ALPHA

if TYPE_CHECKING:
    from .base import RoutingContext

__all__ = [
    "ColumnViewUnavailable",
    "TermGather",
    "ColumnContextView",
    "cori_score_array",
    "columnar_term_space_average",
]


class ColumnViewUnavailable(Exception):
    """The routing context cannot be served from packed columns.

    Raised for peer lists that are not column-backed, that span
    different peer-id tables, or that hold foreign synopsis objects.
    """


@dataclass(frozen=True)
class TermGather:
    """One query term's columns gathered into candidate order."""

    term: str
    columns: TermColumns
    #: Candidate position -> stored row in ``columns`` (-1 = no post).
    rows: np.ndarray
    has_post: np.ndarray
    has_synopsis: np.ndarray
    cdf: np.ndarray
    term_space: np.ndarray


def _shared_table(per_term: list[TermColumns]) -> PeerIdTable | None:
    """The single peer-id table behind all non-empty term columns.

    Empty columns are table-agnostic (nothing to gather), so a fresh
    empty PeerList from a directory miss never blocks the view.  Returns
    ``None`` when every column is empty.
    """
    table: PeerIdTable | None = None
    for columns in per_term:
        if len(columns) == 0:
            continue
        if table is None:
            table = columns.table
        elif columns.table is not table:
            raise ColumnViewUnavailable(
                "peer lists span different peer-id tables"
            )
    return table


class ColumnContextView:
    """Candidate assembly for one query, entirely on packed arrays."""

    __slots__ = ("context", "table", "candidate_ids", "peer_names", "gathers")

    def __init__(
        self,
        context: "RoutingContext",
        table: PeerIdTable,
        candidate_ids: np.ndarray,
        peer_names: list[str],
        gathers: list[TermGather],
    ) -> None:
        self.context = context
        self.table = table
        self.candidate_ids = candidate_ids
        self.peer_names = peer_names
        self.gathers = gathers

    @property
    def count(self) -> int:
        return len(self.peer_names)

    @classmethod
    def build(cls, context: "RoutingContext") -> "ColumnContextView":
        per_term: list[TermColumns] = []
        for term in context.query.terms:
            peer_list = context.peer_lists[term]
            columns = getattr(peer_list, "columns", None)
            if not isinstance(columns, TermColumns):
                raise ColumnViewUnavailable("peer list is not column-backed")
            if not columns.is_pure:
                raise ColumnViewUnavailable(
                    "peer list holds foreign synopsis objects"
                )
            per_term.append(columns)
        table = _shared_table(per_term)
        if table is None:
            # Every list is empty: no candidates regardless of table.
            table = per_term[0].table
            candidate_ids = np.zeros(0, dtype=np.int64)
        else:
            candidate_ids = np.unique(
                np.concatenate(
                    [tc.interned_ids() for tc in per_term if len(tc)]
                )
            )
            if context.initiator is not None:
                initiator_id = table.lookup(context.initiator.peer_id)
                if initiator_id is not None:
                    candidate_ids = candidate_ids[candidate_ids != initiator_id]
            if len(candidate_ids):
                names = table.names_array()[candidate_ids]
                candidate_ids = candidate_ids[np.argsort(names)]
        peer_names = (
            table.names_array()[candidate_ids].tolist()
            if len(candidate_ids)
            else []
        )
        count = len(peer_names)
        gathers: list[TermGather] = []
        for term, columns in zip(context.query.terms, per_term):
            if len(columns) == 0:
                rows = np.full(count, -1, dtype=np.int64)
                absent = np.zeros(count, dtype=bool)
                zeros = np.zeros(count, dtype=np.int64)
                gathers.append(
                    TermGather(term, columns, rows, absent, absent, zeros, zeros)
                )
                continue
            rows = columns.peer_rows(candidate_ids)
            has_post = rows >= 0
            safe = np.where(has_post, rows, 0)
            cdf = np.where(has_post, columns.cdf_values()[safe], 0)
            term_space = np.where(
                has_post, columns.term_space_values()[safe], 0
            )
            has_synopsis = has_post & columns.synopsis_flags()[safe]
            gathers.append(
                TermGather(
                    term, columns, rows, has_post, has_synopsis, cdf, term_space
                )
            )
        return cls(context, table, candidate_ids, peer_names, gathers)


def cori_score_array(
    view: ColumnContextView, *, alpha: float = CORI_ALPHA
) -> np.ndarray:
    """CORI scores for every candidate, vectorized over the gathers.

    Floating-point operations run in the same order and association as
    :func:`repro.routing.cori.cori_score`, so scores are bit-identical
    to the scalar path.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    context = view.context
    np_peers = context.num_peers
    v_avg = context.average_term_space_size or 1.0
    total = np.zeros(view.count, dtype=np.float64)
    for gather in view.gathers:
        cdf = gather.cdf.astype(np.float64)
        sizes = gather.term_space.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_component = cdf / ((cdf + 50.0) + (150.0 * sizes) / v_avg)
        cf = max(1, context.collection_frequency(gather.term))
        i_component = math.log((np_peers + 0.5) / cf) / math.log(np_peers + 1.0)
        contribution = np.where(
            gather.cdf > 0,
            alpha + (1.0 - alpha) * t_component * i_component,
            alpha,
        )
        total = total + contribution
    return total / float(len(context.query.terms))


def columnar_term_space_average(
    peer_lists: Mapping[str, object],
) -> float | None:
    """``average_term_space_size`` from packed columns, or ``None``.

    Mirrors the scalar path exactly: last-write-wins per peer across the
    peer lists in dict order, integer sum, then one float division.
    Returns ``None`` when any list is not column-backed or the lists
    span different peer-id tables — the caller falls back to the scalar
    dict loop.
    """
    per_term: list[TermColumns] = []
    for peer_list in peer_lists.values():
        columns = getattr(peer_list, "columns", None)
        if not isinstance(columns, TermColumns):
            return None
        per_term.append(columns)
    try:
        table = _shared_table(per_term)
    except ColumnViewUnavailable:
        return None
    if table is None:
        return 1.0
    values = np.zeros(len(table), dtype=np.int64)
    seen = np.zeros(len(table), dtype=bool)
    for columns in per_term:
        if len(columns) == 0:
            continue
        interned = columns.interned_ids()
        values[interned] = columns.term_space_values()
        seen[interned] = True
    count = int(np.count_nonzero(seen))
    if count == 0:
        return 1.0
    return int(values[seen].sum()) / count
