"""10* padding between byte strings and fixed-width blocks.

A byte string is read as one bit stream, most significant bit of each byte
first.  Padding appends a single 1 bit and then 0 bits up to a whole number
of blocks, so even the empty string fills one block and the padding strips
off unambiguously.  Each block is an integer whose most significant bit
(bit width-1) holds the block's first stream bit; a scheme that orders
block bits differently converts on its side.
"""

from __future__ import annotations

from .errors import DecodingFailure


def pack(data: bytes, width: int) -> list[int]:
    """Split data plus its 10* padding into width-bit blocks."""
    nbits = 8 * len(data) + 1
    fill = -nbits % width
    stream = ((int.from_bytes(data, "big") << 1) | 1) << fill
    digits = format(stream, "b").zfill(nbits + fill)
    return [int(digits[i : i + width], 2) for i in range(0, len(digits), width)]


def unpack(blocks: list[int], width: int) -> bytes:
    """Join width-bit blocks and strip the 10* padding.

    Raises DecodingFailure when no marker bit is present or when the bits
    before the marker are not a whole number of bytes.
    """
    stream = int("".join(format(b, f"0{width}b") for b in blocks) or "0", 2)
    if not stream:
        raise DecodingFailure("padding marker missing after decryption")
    tail = (stream & -stream).bit_length()  # the marker and the 0s after it
    nbits = width * len(blocks) - tail
    if nbits % 8:
        raise DecodingFailure(
            f"{nbits} payload bits before the padding marker are not whole bytes"
        )
    return (stream >> tail).to_bytes(nbits // 8, "big")
