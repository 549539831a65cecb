"""Tests for the synopsis wire format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synopses.factory import SynopsisSpec
from repro.synopses.wire import WireFormatError, dumps, loads

ALL_SPECS = [
    SynopsisSpec.parse("mips-32"),
    SynopsisSpec.parse("bf-1024"),
    SynopsisSpec.parse("hs-16"),
    SynopsisSpec.parse("ll-64"),
]


class TestRoundtrip:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_nonempty(self, spec):
        synopsis = spec.build(range(500))
        assert loads(dumps(synopsis)) == synopsis

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_empty(self, spec):
        synopsis = spec.empty()
        assert loads(dumps(synopsis)) == synopsis

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_negative_seed(self, spec):
        import dataclasses

        seeded = dataclasses.replace(spec, seed=-12345)
        synopsis = seeded.build(range(100))
        assert loads(dumps(synopsis)) == synopsis

    @given(st.sets(st.integers(min_value=0, max_value=1 << 40), max_size=200))
    @settings(max_examples=25)
    def test_roundtrip_property(self, ids):
        for spec in ALL_SPECS:
            synopsis = spec.build(ids)
            assert loads(dumps(synopsis)) == synopsis

    def test_estimates_survive_roundtrip(self):
        spec = SynopsisSpec.parse("mips-64")
        a = spec.build(range(1000))
        b = spec.build(range(500, 1500))
        assert loads(dumps(a)).estimate_resemblance(
            loads(dumps(b))
        ) == a.estimate_resemblance(b)


class TestWireSize:
    def test_payload_tracks_size_in_bits(self):
        for spec in ALL_SPECS:
            synopsis = spec.build(range(500))
            wire_bits = len(dumps(synopsis)) * 8
            # Header + byte rounding only; never more than ~70% overhead
            # (LogLog stores 5-bit registers as whole bytes).
            assert wire_bits < 1.7 * synopsis.size_in_bits + 160

    def test_mips_minima_are_four_bytes_each(self):
        spec = SynopsisSpec.parse("mips-16")
        data = dumps(spec.build(range(10)))
        assert len(data) >= 16 * 4


class TestMalformedInput:
    def test_empty_payload(self):
        with pytest.raises(WireFormatError, match="empty"):
            loads(b"")

    def test_unknown_kind(self):
        with pytest.raises(WireFormatError, match="unknown"):
            loads(b"\xff\x01\x02")

    def test_truncated_header(self):
        with pytest.raises(WireFormatError):
            loads(b"\x01\x80")  # unterminated varint

    def test_truncated_payload(self):
        spec = SynopsisSpec.parse("bf-1024")
        data = dumps(spec.build(range(100)))
        with pytest.raises(WireFormatError, match="truncated"):
            loads(data[:-5])

    def test_mips_out_of_range_minimum(self):
        spec = SynopsisSpec.parse("mips-4")
        data = bytearray(dumps(spec.build(range(10))))
        data[-1] = 0xFF  # push top minimum past the modulus
        with pytest.raises(WireFormatError, match="out of range"):
            loads(bytes(data))

    def test_zero_length_sketch_bitmaps_rejected_without_looping(self):
        # Header: kind 0x02, num_bitmaps = 2**62 (uvarint), bitmap_length
        # = 0, seed = 0.  Must fail fast, not build 2**62 empty bitmaps.
        header = b"\x02" + b"\x80" * 8 + b"\x40" + b"\x00\x00"
        with pytest.raises(WireFormatError, match="bitmap_length"):
            loads(header)

    def test_unsupported_type_rejected_on_dumps(self):
        with pytest.raises(WireFormatError, match="no wire format"):
            dumps(object())  # type: ignore[arg-type]


class TestHistogramWire:
    def test_roundtrip(self):
        from repro.synopses.histogram import ScoreHistogramSynopsis

        spec = SynopsisSpec.parse("mips-8")
        hist = ScoreHistogramSynopsis.from_scored_ids(
            [(1, 0.95), (2, 0.1), (3, 0.5), (4, 0.52)], spec=spec, num_cells=4
        )
        restored = loads(dumps(hist))
        assert restored.cells == hist.cells
        assert restored.cell_cardinalities == hist.cell_cardinalities
        assert restored.spec == hist.spec

    def test_empty_histogram_roundtrip(self):
        from repro.synopses.histogram import ScoreHistogramSynopsis

        spec = SynopsisSpec.parse("bf-256")
        hist = ScoreHistogramSynopsis.empty(spec=spec, num_cells=3)
        restored = loads(dumps(hist))
        assert restored.spec == hist.spec
        assert all(cell.is_empty for cell in restored.cells)

    def test_truncated_rejected(self):
        from repro.synopses.histogram import ScoreHistogramSynopsis

        spec = SynopsisSpec.parse("mips-8")
        hist = ScoreHistogramSynopsis.empty(spec=spec, num_cells=2)
        data = dumps(hist)
        with pytest.raises(WireFormatError):
            loads(data[:-3])

    def test_estimated_cardinality_preserved(self):
        from repro.synopses.histogram import ScoreHistogramSynopsis

        spec = SynopsisSpec.parse("mips-16")
        hist = ScoreHistogramSynopsis.from_scored_ids(
            [(i, 0.8) for i in range(100)], spec=spec, num_cells=2
        )
        restored = loads(dumps(hist))
        assert restored.total_cardinality == hist.total_cardinality


class TestSpecOf:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_roundtrip_via_instance(self, spec):
        synopsis = spec.build(range(50))
        recovered = SynopsisSpec.of(synopsis)
        assert recovered.kind == spec.kind
        assert recovered.parameter == spec.parameter
        assert recovered.seed == spec.seed

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="cannot derive"):
            SynopsisSpec.of(object())  # type: ignore[arg-type]


class TestFuzzedInput:
    """loads() must never crash on garbage — only raise WireFormatError
    (or ValueError from constructor validation)."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_random_bytes_never_crash(self, data):
        try:
            loads(data)
        except (WireFormatError, ValueError):
            pass

    @given(
        st.binary(max_size=50),
        st.sampled_from([b"\x01", b"\x02", b"\x03", b"\x04", b"\x05"]),
    )
    @settings(max_examples=200)
    def test_valid_kind_bytes_with_garbage_payload(self, tail, kind):
        try:
            loads(kind + tail)
        except (WireFormatError, ValueError):
            pass

    @given(st.integers(min_value=0, max_value=255), st.binary(max_size=30))
    @settings(max_examples=100)
    def test_truncations_of_valid_payloads(self, cut, tail):
        spec = SynopsisSpec.parse("mips-4")
        data = dumps(spec.build(range(5)))
        mangled = data[: cut % len(data)] + tail
        try:
            loads(mangled)
        except (WireFormatError, ValueError):
            pass
