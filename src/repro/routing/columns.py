"""Zero-copy columnar candidate view over column-backed PeerLists.

:meth:`RoutingContext.candidates` assembles one :class:`CandidatePeer`
per peer per query — a Python dict walk that dominates query time past
~10^3 peers.  When every PeerList in the query is backed by a
:class:`~repro.synopses.columnstore.TermColumns` sharing one interned
peer-id table (the invariant :class:`~repro.minerva.directory.Directory`
maintains), candidate assembly reduces to array ops on the table's name
ranks (:meth:`~repro.synopses.columnstore.PeerIdTable.name_ranks`):

- the candidates are the sorted, de-duplicated union of the query
  terms' rank arrays, minus the initiator;
- each term's stored rows are scattered once to their candidate
  positions, found with ``searchsorted``;
- ``|V_avg|`` and the CORI scores are computed from those scattered
  arrays, and peer names are resolved only for the peers a plan picks.

Nothing here touches an array the size of the peer table.

Everything reproduces that assembly and
:func:`~repro.routing.cori.cori_scores` bit-for-bit: ``|V_avg|`` is
last-write-wins over the lists in dict order, CORI runs the same float
operations in the same association, and candidate order equals
``sorted(peer_ids)`` because name ranks are Python code-point order.

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
    """One query term's stored rows scattered to candidate positions.

    ``positions[r]`` is the candidate position of ``columns``' stored row
    ``r``.  The initiator is no candidate: its row points one past the
    last candidate, so every stored row scatters, into a spare slot that
    is cut off.  The other arrays are candidate-aligned, zero where the
    term has no post.
    """

    term: str
    columns: TermColumns
    positions: np.ndarray
    has_post: np.ndarray
    has_synopsis: np.ndarray
    cdf: np.ndarray
    term_space: np.ndarray

    def ordered(self, order: np.ndarray, inverse: np.ndarray) -> "TermGather":
        """This gather with candidate ``order[i]`` moved to position ``i``."""
        return TermGather(
            self.term,
            self.columns,
            inverse[self.positions],
            self.has_post[order],
            self.has_synopsis[order],
            self.cdf[order],
            self.term_space[order],
        )


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


def _scattered(
    count: int, positions: np.ndarray, values: object, dtype: type
) -> np.ndarray:
    """A zero array of length ``count`` holding ``values`` at
    ``positions`` (see :class:`TermGather` for the spare slot)."""
    out = np.zeros(count + 1, dtype=dtype)
    out[positions] = values
    return out[:count]


def _distinct(ranks: list[np.ndarray]) -> np.ndarray:
    """The sorted, de-duplicated union of the rank arrays."""
    merged = np.concatenate(ranks)
    merged.sort()
    first = np.empty(len(merged), dtype=bool)
    first[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    return merged[first]


class ColumnContextView:
    """Candidate assembly for one query, entirely on packed arrays.

    Candidate ``i`` is the peer at name rank ``ranks[i]``; the view is
    built in ascending name order and :meth:`ordered` permutes it.
    """

    __slots__ = ("context", "table", "ranks", "gathers", "term_space_average")

    def __init__(
        self,
        context: "RoutingContext",
        table: PeerIdTable,
        ranks: np.ndarray,
        gathers: list[TermGather],
        term_space_average: float,
    ) -> None:
        self.context = context
        self.table = table
        self.ranks = ranks
        self.gathers = gathers
        #: CORI's ``|V_avg|``, equal to ``context.average_term_space_size``.
        self.term_space_average = term_space_average

    @property
    def count(self) -> int:
        return len(self.ranks)

    def peer_names(self, positions: np.ndarray) -> list[str]:
        """The peer ids of the candidates at ``positions``."""
        return self.table.names_at_ranks(self.ranks[positions])

    def ordered(self, order: np.ndarray) -> "ColumnContextView":
        """This view with candidate ``order[i]`` moved to position ``i``."""
        count = len(order)
        inverse = np.empty(count + 1, dtype=np.int64)
        inverse[order] = np.arange(count, dtype=np.int64)
        inverse[count] = count  # the spare slot stays last
        return ColumnContextView(
            self.context,
            self.table,
            self.ranks[order],
            [gather.ordered(order, inverse) for gather in self.gathers],
            self.term_space_average,
        )

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
            # Every list is empty: no candidates, whatever the table.
            table = per_term[0].table
        name_ranks = table.name_ranks()
        own_ranks = [name_ranks[columns.interned_ids()] for columns in per_term]
        ranks = _distinct(own_ranks)
        initiator: int | None = None
        if context.initiator is not None:
            initiator = table.lookup(context.initiator.peer_id)
        if initiator is not None:
            ranks = ranks[ranks != name_ranks[initiator]]
        count = len(ranks)
        gathers: list[TermGather] = []
        # The initiator's ``|V_avg|`` size, last write wins per term.
        initiator_sizes: dict[str, int] = {}
        for term, columns, own in zip(context.query.terms, per_term, own_ranks):
            positions = np.searchsorted(ranks, own)
            row = None if initiator is None else columns.row_for(initiator)
            if row is not None:
                initiator_sizes[term] = int(columns.term_space_values()[row])
                positions[row] = count
            gathers.append(
                TermGather(
                    term,
                    columns,
                    positions,
                    _scattered(count, positions, True, bool),
                    _scattered(count, positions, columns.synopsis_flags(), bool),
                    _scattered(count, positions, columns.cdf_values(), np.int64),
                    _scattered(count, positions, columns.term_space_values(), np.int64),
                )
            )
        return cls(
            context,
            table,
            ranks,
            gathers,
            _view_term_space_average(context, gathers, initiator_sizes),
        )


def _view_term_space_average(
    context: "RoutingContext",
    gathers: list[TermGather],
    initiator_sizes: Mapping[str, int],
) -> float:
    """``context.average_term_space_size`` from the scattered arrays.

    Every candidate posts in some query term, so the peers seen are the
    candidates plus the initiator if it posts; each takes its size from
    the last list holding it in ``peer_lists`` order.  A context with
    lists beyond the query terms reads the context's own value.
    """
    by_term = {gather.term: gather for gather in gathers}
    if any(term not in by_term for term in context.peer_lists):
        return context.average_term_space_size
    count = len(gathers[0].cdf)
    sizes = np.zeros(count, dtype=np.int64)
    initiator_size: int | None = None
    for term in context.peer_lists:
        gather = by_term[term]
        np.copyto(sizes, gather.term_space, where=gather.has_post)
        initiator_size = initiator_sizes.get(term, initiator_size)
    seen = count + (initiator_size is not None)
    if seen == 0:
        return 1.0
    return (int(sizes.sum()) + (initiator_size or 0)) / seen


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
    v_avg = view.term_space_average or 1.0
    total = np.zeros(view.count, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for gather in view.gathers:
            cdf = gather.cdf.astype(np.float64)
            sizes = gather.term_space.astype(np.float64)
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
    name_ranks = table.name_ranks()
    own_ranks = [name_ranks[columns.interned_ids()] for columns in per_term]
    ranks = _distinct(own_ranks)
    sizes = np.zeros(len(ranks), dtype=np.int64)
    for columns, own in zip(per_term, own_ranks):
        sizes[np.searchsorted(ranks, own)] = columns.term_space_values()
    return int(sizes.sum()) / len(ranks)
