"""The MINERVA P2P Web search testbed (Section 4)."""

from .directory import Directory
from .engine import MinervaEngine, QueryOutcome
from .peer import Peer
from .posts import POST_STATS_BITS, PeerList, Post, PostBatch
from .stats import GlobalTermStats, global_term_statistics
from .topk_peers import TopKPeerResult, fetch_top_k_peers

__all__ = [
    "Post",
    "PostBatch",
    "PeerList",
    "POST_STATS_BITS",
    "Peer",
    "Directory",
    "MinervaEngine",
    "QueryOutcome",
    "GlobalTermStats",
    "global_term_statistics",
    "TopKPeerResult",
    "fetch_top_k_peers",
]
