"""Sensor identification and over-air frame codec.

Each thermometer carries a factory-style 64-bit ROM code (8-bit family,
48-bit serial, 8-bit CRC) and every reading travels in a fixed 256-bit
frame so airtime is identical for all packets.

Frame layout, MSB-first (byte offsets in the 32-byte word):

    bytes  0-1   preamble 0xAA55
    bytes  2-9   sensor id (family, serial little-endian, id crc)
    bytes 10-11  raw temperature, 16-bit signed, 0.0625 degC per count
    bytes 12-13  sequence, 16-bit wrapping counter
    byte  14     frame crc over bytes 2..13
    bytes 15-31  zero padding

The padding is excluded from the frame CRC, so the checksum covers
exactly the meaningful bytes.
"""

from __future__ import annotations

import functools
import struct
from typing import NamedTuple

FRAME_BITS = 256
FRAME_BYTES = FRAME_BITS // 8
PREAMBLE = 0xAA55
DEFAULT_FAMILY = 0x28

TEMP_LSB_C = 0.0625

# CRC-8 with polynomial x^8 + x^5 + x^4 + 1, reflected, init 0, no
# final xor (the Dallas/Maxim 1-Wire convention).  Reflected form shifts
# right with 0x8C.
_CRC8_TABLE = []
for _b in range(256):
    _c = _b
    for _ in range(8):
        _c = (_c >> 1) ^ 0x8C if _c & 1 else _c >> 1
    _CRC8_TABLE.append(_c)


def crc8(data: bytes) -> int:
    """CRC-8/MAXIM of a byte sequence (check value of b"123456789" is 0xA1)."""
    crc = 0x00
    for byte in data:
        crc = _CRC8_TABLE[crc ^ byte]
    return crc


class FrameError(Exception):
    """Base class for frame codec failures."""


class InvalidId(FrameError):
    """Sensor id failed its CRC self-check."""


class BadPreamble(FrameError):
    """Frame word does not start with the expected preamble."""


class BadIdCrc(FrameError):
    """Embedded sensor id fails its CRC."""


class BadFrameCrc(FrameError):
    """Frame CRC mismatch over the covered bytes."""


class SensorId(NamedTuple):
    """64-bit ROM code: family byte, 48-bit serial, CRC-8 over both."""

    family_code: int
    serial: int
    crc: int

    def to_bytes(self) -> bytes:
        """8-byte wire form: family first, serial little-endian, crc last."""
        return bytes([self.family_code]) + self.serial.to_bytes(6, "little") + bytes([self.crc])

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SensorId":
        if len(raw) != 8:
            raise ValueError(f"sensor id must be 8 bytes, got {len(raw)}")
        return cls(raw[0], int.from_bytes(raw[1:7], "little"), raw[7])

    def hex(self) -> str:
        return self.to_bytes().hex()


def make_sensor_id(family: int = DEFAULT_FAMILY, serial: int = 0) -> SensorId:
    """Build a SensorId with its CRC computed over family and serial."""
    if not 0 <= family <= 0xFF:
        raise ValueError(f"family code out of range: {family}")
    if not 0 <= serial < (1 << 48):
        raise ValueError(f"serial out of range: {serial}")
    body = bytes([family]) + serial.to_bytes(6, "little")
    return SensorId(family, serial, crc8(body))


def validate_sensor_id(sensor_id: SensorId) -> bool:
    """True iff the stored CRC matches a recomputation."""
    body = sensor_id.to_bytes()[:7]
    return crc8(body) == sensor_id.crc


class Frame(NamedTuple):
    """Decoded contents of one over-air packet."""

    sensor_id: SensorId
    raw_temp: int
    sequence: int


@functools.lru_cache(maxsize=1024)
def _checked_id_bytes(sensor_id: SensorId) -> bytes:
    """Wire form of an id that passes its CRC check, else InvalidId.

    Only a valid id is cached, so an invalid one raises on every call.
    """
    if not validate_sensor_id(sensor_id):
        raise InvalidId(f"sensor id {sensor_id.hex()} fails crc check")
    return sensor_id.to_bytes()


@functools.lru_cache(maxsize=1024)
def _checked_wire_id(raw: bytes) -> SensorId:
    """The id carried by 8 wire bytes that pass its CRC check, else BadIdCrc."""
    sensor_id = SensorId.from_bytes(raw)
    if not validate_sensor_id(sensor_id):
        raise BadIdCrc(f"sensor id {sensor_id.hex()} fails crc check")
    return sensor_id


# Packed layouts (see the module docstring): the reading's two fields;
# the whole word, with the 12 covered bytes as one field and zero
# padding; and the word's first 15 bytes, field by field.
_READING = struct.Struct(">hH")
_WORD = struct.Struct(f">H12sB{FRAME_BYTES - 15}x")
_HEAD = struct.Struct(">H8shHB")


def encode_frame(sensor_id: SensorId, raw_temp: int, sequence: int) -> bytes:
    """Serialize to the 256-bit word (32 bytes, hex form is 64 chars).

    Raises InvalidId if the sensor id fails validation, ValueError for
    field values that do not fit their widths.  Each distinct valid id
    is checked once.
    """
    id_bytes = _checked_id_bytes(sensor_id)
    if not -(1 << 15) <= raw_temp < (1 << 15):
        raise ValueError(f"raw_temp out of 16-bit signed range: {raw_temp}")
    if not 0 <= sequence < (1 << 16):
        raise ValueError(f"sequence out of 16-bit range: {sequence}")
    covered = id_bytes + _READING.pack(raw_temp, sequence)
    return _WORD.pack(PREAMBLE, covered, crc8(covered))


def decode_frame(word: bytes) -> Frame:
    """Parse a 256-bit word back into a Frame.

    Checks run in order: preamble, id CRC, frame CRC, each with its own
    error class so corruption types can be counted separately.  Padding
    bytes are not covered by any check.  The id CRC is checked once per
    distinct valid id; the frame CRC on every word.
    """
    if len(word) != FRAME_BYTES:
        raise FrameError(f"frame must be {FRAME_BYTES} bytes, got {len(word)}")
    preamble, id_bytes, raw_temp, sequence, frame_crc = _HEAD.unpack_from(word)
    if preamble != PREAMBLE:
        raise BadPreamble(f"bad preamble {word[0:2].hex()}")
    sensor_id = _checked_wire_id(id_bytes)
    if crc8(word[2:14]) != frame_crc:
        raise BadFrameCrc(f"frame crc mismatch, stored {frame_crc:#04x}")
    return Frame(sensor_id, raw_temp, sequence)
