"""Wire (de)serialization for synopses.

MINERVA peers ship synopses inside Posts; a real deployment needs a
compact, self-describing byte format.  The format here is deliberately
simple and versionless-stable:

``[1 byte kind][header varints...][payload bytes]``

- Bloom filter: kind 0x01, header ``(num_bits, num_hashes, seed)``,
  payload = ceil(num_bits / 8) little-endian bitmap bytes.
- Hash sketch: kind 0x02, header ``(num_bitmaps, bitmap_length, seed)``,
  payload = bitmaps, each ceil(bitmap_length / 8) bytes.
- MIPs: kind 0x03, header ``(num_permutations, seed)``, payload = 4-byte
  little-endian minima (31-bit values + the sentinel fit in 4 bytes).
- LogLog counter: kind 0x04, header ``(num_buckets, seed)``, payload =
  one byte per 5-bit register (wire simplicity beats bit packing here;
  ``size_in_bits`` still reports the packed 5-bit budget the estimator
  needs).

Integers in headers use unsigned LEB128 varints; seeds are zigzag-coded
so negative seeds survive.  ``loads`` dispatches on the kind byte.

The byte lengths agree with each synopsis's ``size_in_bits`` accounting
up to byte-rounding plus the small header, so the cost model's numbers
track real wire sizes.
"""

from __future__ import annotations

import struct

from .base import SetSynopsis, SynopsisError
from .bloom import BloomFilter
from .factory import SynopsisSpec
from .hashsketch import HashSketch
from .histogram import ScoreHistogramSynopsis
from .loglog import LogLogCounter
from .mips import MIPS_MODULUS, MinWisePermutations

__all__ = ["dumps", "loads", "WireFormatError"]

_KIND_BLOOM = 0x01
_KIND_HASH_SKETCH = 0x02
_KIND_MIPS = 0x03
_KIND_LOGLOG = 0x04
_KIND_HISTOGRAM = 0x05


class WireFormatError(SynopsisError):
    """Raised on malformed or truncated synopsis bytes."""


# -- varint helpers ----------------------------------------------------------


def _write_uvarint(value: int, out: bytearray) -> None:
    if value < 0:
        raise ValueError(f"uvarint requires value >= 0, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise WireFormatError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise WireFormatError("varint too long")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


# -- serialization ------------------------------------------------------------


def dumps(synopsis: "SetSynopsis | ScoreHistogramSynopsis") -> bytes:
    """Serialize any supported synopsis (or histogram composite) to bytes."""
    out = bytearray()
    if isinstance(synopsis, BloomFilter):
        out.append(_KIND_BLOOM)
        _write_uvarint(synopsis.num_bits, out)
        _write_uvarint(synopsis.num_hashes, out)
        _write_uvarint(_zigzag(synopsis.seed), out)
        payload_len = (synopsis.num_bits + 7) // 8
        out += synopsis._bits.to_bytes(payload_len, "little")
    elif isinstance(synopsis, HashSketch):
        out.append(_KIND_HASH_SKETCH)
        _write_uvarint(synopsis.num_bitmaps, out)
        _write_uvarint(synopsis.bitmap_length, out)
        _write_uvarint(_zigzag(synopsis.seed), out)
        bitmap_bytes = (synopsis.bitmap_length + 7) // 8
        for bitmap in synopsis.bitmaps:
            out += bitmap.to_bytes(bitmap_bytes, "little")
    elif isinstance(synopsis, MinWisePermutations):
        out.append(_KIND_MIPS)
        _write_uvarint(synopsis.num_permutations, out)
        _write_uvarint(_zigzag(synopsis.seed), out)
        for minimum in synopsis.minima:
            out += minimum.to_bytes(4, "little")
    elif isinstance(synopsis, LogLogCounter):
        out.append(_KIND_LOGLOG)
        _write_uvarint(synopsis.num_buckets, out)
        _write_uvarint(_zigzag(synopsis.seed), out)
        out += bytes(synopsis.registers)  # 5-bit values, one byte each
    elif isinstance(synopsis, ScoreHistogramSynopsis):
        out.append(_KIND_HISTOGRAM)
        _write_uvarint(synopsis.num_cells, out)
        for cell, cardinality in zip(synopsis.cells, synopsis.cell_cardinalities):
            out += struct.pack("<d", cardinality)
            payload = dumps(cell)
            _write_uvarint(len(payload), out)
            out += payload
    else:
        raise WireFormatError(
            f"no wire format for synopsis type {type(synopsis).__name__}"
        )
    return bytes(out)


def loads(data: bytes) -> "SetSynopsis | ScoreHistogramSynopsis":
    """Reconstruct a synopsis serialized by :func:`dumps`."""
    if not data:
        raise WireFormatError("empty payload")
    kind = data[0]
    offset = 1
    if kind == _KIND_BLOOM:
        num_bits, offset = _read_uvarint(data, offset)
        num_hashes, offset = _read_uvarint(data, offset)
        zz_seed, offset = _read_uvarint(data, offset)
        payload_len = (num_bits + 7) // 8
        payload = _take(data, offset, payload_len)
        return BloomFilter(
            num_bits,
            num_hashes,
            _unzigzag(zz_seed),
            int.from_bytes(payload, "little"),
        )
    if kind == _KIND_HASH_SKETCH:
        num_bitmaps, offset = _read_uvarint(data, offset)
        bitmap_length, offset = _read_uvarint(data, offset)
        zz_seed, offset = _read_uvarint(data, offset)
        if bitmap_length == 0:
            # Zero-byte bitmaps would let a tiny header declare any
            # number of them and loop without consuming input.
            raise WireFormatError("hash-sketch bitmap_length must be positive")
        bitmap_bytes = (bitmap_length + 7) // 8
        bitmaps = []
        for _ in range(num_bitmaps):
            chunk = _take(data, offset, bitmap_bytes)
            offset += bitmap_bytes
            bitmaps.append(int.from_bytes(chunk, "little"))
        return HashSketch(num_bitmaps, bitmap_length, _unzigzag(zz_seed), bitmaps)
    if kind == _KIND_MIPS:
        count, offset = _read_uvarint(data, offset)
        zz_seed, offset = _read_uvarint(data, offset)
        minima = []
        for _ in range(count):
            chunk = _take(data, offset, 4)
            offset += 4
            value = int.from_bytes(chunk, "little")
            if value > MIPS_MODULUS:
                raise WireFormatError(f"MIPs minimum out of range: {value}")
            minima.append(value)
        return MinWisePermutations(minima, _unzigzag(zz_seed))
    if kind == _KIND_LOGLOG:
        count, offset = _read_uvarint(data, offset)
        zz_seed, offset = _read_uvarint(data, offset)
        payload = _take(data, offset, count)
        return LogLogCounter(count, _unzigzag(zz_seed), list(payload))
    if kind == _KIND_HISTOGRAM:
        num_cells, offset = _read_uvarint(data, offset)
        if num_cells == 0:
            raise WireFormatError("histogram must have at least one cell")
        cells: list[SetSynopsis] = []
        cardinalities = []
        for _ in range(num_cells):
            chunk = _take(data, offset, 8)
            offset += 8
            cardinalities.append(struct.unpack("<d", chunk)[0])
            length, offset = _read_uvarint(data, offset)
            payload = _take(data, offset, length)
            offset += length
            cell = loads(payload)
            if isinstance(cell, ScoreHistogramSynopsis):
                raise WireFormatError("histogram cells cannot nest histograms")
            cells.append(cell)
        spec = SynopsisSpec.of(cells[0])
        return ScoreHistogramSynopsis(
            cells=tuple(cells),
            cell_cardinalities=tuple(cardinalities),
            spec=spec,
        )
    raise WireFormatError(f"unknown synopsis kind byte 0x{kind:02x}")


def _take(data: bytes, offset: int, length: int) -> bytes:
    chunk = data[offset : offset + length]
    if len(chunk) != length:
        raise WireFormatError(
            f"truncated payload: wanted {length} bytes at offset {offset}, "
            f"got {len(chunk)}"
        )
    return chunk
