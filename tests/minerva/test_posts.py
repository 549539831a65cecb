"""Tests for Posts and PeerLists."""

import pytest

from repro.minerva.posts import POST_STATS_BITS, PeerList, Post
from repro.synopses.factory import SynopsisSpec

SPEC = SynopsisSpec.parse("mips-16")


def make_post(peer_id="p1", term="apple", cdf=10, max_score=2.0, **kwargs):
    return Post(
        peer_id=peer_id,
        term=term,
        cdf=cdf,
        max_score=max_score,
        avg_score=kwargs.pop("avg_score", 1.0),
        term_space_size=kwargs.pop("term_space_size", 100),
        synopsis=kwargs.pop("synopsis", SPEC.build(range(cdf))),
        **kwargs,
    )


class TestPost:
    def test_size_includes_synopsis(self):
        post = make_post()
        assert post.size_in_bits == POST_STATS_BITS + SPEC.size_in_bits

    def test_size_without_synopsis(self):
        post = make_post(synopsis=None)
        assert post.size_in_bits == POST_STATS_BITS

    def test_size_with_histogram(self):
        from repro.synopses.histogram import ScoreHistogramSynopsis

        hist = ScoreHistogramSynopsis.empty(spec=SPEC, num_cells=2)
        post = make_post(histogram=hist)
        assert (
            post.size_in_bits
            == POST_STATS_BITS + SPEC.size_in_bits + hist.size_in_bits
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            make_post(cdf=-1)
        with pytest.raises(ValueError):
            make_post(max_score=-0.5)
        with pytest.raises(ValueError):
            make_post(term_space_size=-1)


class TestPeerList:
    def test_add_and_get(self):
        peer_list = PeerList(term="apple")
        post = make_post()
        peer_list.add(post)
        assert peer_list.get("p1") == post
        assert peer_list.get("p2") is None

    def test_repost_overwrites(self):
        peer_list = PeerList(term="apple")
        peer_list.add(make_post(cdf=5))
        updated = make_post(cdf=9)
        peer_list.add(updated)
        assert len(peer_list) == 1
        assert peer_list.get("p1").cdf == 9

    def test_wrong_term_rejected(self):
        peer_list = PeerList(term="apple")
        with pytest.raises(ValueError):
            peer_list.add(make_post(term="banana"))

    def test_collection_frequency(self):
        peer_list = PeerList(term="apple")
        peer_list.add(make_post(peer_id="a"))
        peer_list.add(make_post(peer_id="b"))
        assert peer_list.collection_frequency == 2
        assert peer_list.peer_ids == {"a", "b"}

    def test_size_sums_posts(self):
        peer_list = PeerList(term="apple")
        peer_list.add(make_post(peer_id="a"))
        peer_list.add(make_post(peer_id="b"))
        assert peer_list.size_in_bits == 2 * make_post().size_in_bits

    def test_top_by_quality(self):
        peer_list = PeerList(term="apple")
        peer_list.add(make_post(peer_id="weak", max_score=0.5))
        peer_list.add(make_post(peer_id="strong", max_score=5.0))
        peer_list.add(make_post(peer_id="mid", max_score=2.0))
        top2 = peer_list.top_by_quality(2)
        assert [p.peer_id for p in top2] == ["strong", "mid"]

    def test_top_by_quality_validation(self):
        with pytest.raises(ValueError):
            PeerList(term="x").top_by_quality(-1)

    def test_iteration(self):
        peer_list = PeerList(term="apple")
        peer_list.add(make_post(peer_id="a"))
        assert [p.peer_id for p in peer_list] == ["a"]

    def test_posts_view_is_read_only(self):
        peer_list = PeerList(term="apple")
        peer_list.add(make_post(peer_id="a"))
        assert "a" in peer_list.posts and "b" not in peer_list.posts
        with pytest.raises(TypeError):
            del peer_list.posts["a"]
        with pytest.raises(TypeError):
            peer_list.posts["b"] = make_post(peer_id="b")


class TestRemove:
    def test_remove_drops_the_post(self):
        peer_list = PeerList(term="apple")
        peer_list.add(make_post(peer_id="a"))
        peer_list.add(make_post(peer_id="b"))
        assert peer_list.get("a") is not None  # cached materialization
        assert peer_list.remove("a") is True
        assert peer_list.get("a") is None
        assert peer_list.row_of("a") is None
        assert [post.peer_id for post in peer_list] == ["b"]
        assert peer_list.size_in_bits == make_post().size_in_bits

    def test_remove_absent_is_false(self):
        peer_list = PeerList(term="apple")
        peer_list.add(make_post(peer_id="a"))
        assert peer_list.remove("never-posted") is False
        assert peer_list.remove("a") is True
        assert peer_list.remove("a") is False
        assert len(peer_list) == 0

    def test_remove_unknown_to_a_shared_table(self):
        # "b" is interned by another term's list but never posted here.
        first = PeerList(term="apple")
        other = PeerList(term="pear", peer_table=first.peer_table)
        other.add(make_post(peer_id="b", term="pear"))
        first.add(make_post(peer_id="a"))
        assert first.remove("b") is False
        assert first.peer_ids == {"a"}

    def test_readd_after_remove_appends(self):
        peer_list = PeerList(term="apple")
        for peer_id in ("a", "b", "c"):
            peer_list.add(make_post(peer_id=peer_id))
        peer_list.remove("a")  # the last row swaps into the hole
        peer_list.add(make_post(peer_id="a", cdf=4))
        assert list(peer_list.posts) == ["c", "b", "a"]
        assert peer_list.get("a").cdf == 4
