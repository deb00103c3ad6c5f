"""Checksum and frame codec tests.

The checksum oracle in helpers divides MSB-first over reflected bytes,
a different construction than the package's table-driven right shift;
both must land on the same published check value before anything else
is trusted.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, strategies as st

from helpers import crc8_oracle
from thermnet.frames import (
    BadFrameCrc,
    BadIdCrc,
    BadPreamble,
    FRAME_BYTES,
    FrameError,
    InvalidId,
    SensorId,
    crc8,
    decode_frame,
    encode_frame,
    make_sensor_id,
    validate_sensor_id,
)
from thermnet.monitor import Reading


def test_oracle_known_answer():
    # Standard check input for this checksum family.
    assert crc8_oracle(b"123456789") == 0xA1


def test_known_answer():
    assert crc8(b"123456789") == 0xA1


def test_empty_input():
    assert crc8(b"") == 0
    assert crc8_oracle(b"") == 0


@given(st.binary(max_size=64))
def test_matches_oracle(data):
    assert crc8(data) == crc8_oracle(data)


@given(st.binary(min_size=1, max_size=64))
def test_appending_own_crc_gives_zero(data):
    assert crc8(data + bytes([crc8(data)])) == 0


@given(st.binary(min_size=1, max_size=32), st.integers(min_value=0))
def test_single_bit_flip_changes_crc(data, position):
    position %= len(data) * 8
    flipped = bytearray(data)
    flipped[position // 8] ^= 1 << (position % 8)
    assert crc8(bytes(flipped)) != crc8(data)


def test_sensor_id_roundtrip():
    sid = make_sensor_id(serial=0x11A3)
    assert validate_sensor_id(sid)
    assert SensorId.from_bytes(sid.to_bytes()) == sid
    assert len(sid.to_bytes()) == 8


def test_sensor_id_crc_covers_first_seven_bytes():
    sid = make_sensor_id(family=0x28, serial=0x0000DEADBEEF)
    assert sid.crc == crc8_oracle(sid.to_bytes()[:7])


def test_corrupt_sensor_id_fails_validation():
    sid = make_sensor_id(serial=5)
    bad = SensorId(sid.family_code, sid.serial + 1, sid.crc)
    assert not validate_sensor_id(bad)


@given(st.integers(min_value=0, max_value=(1 << 48) - 1), st.integers(min_value=0, max_value=255))
def test_sensor_id_bytes_roundtrip(serial, family):
    sid = make_sensor_id(family, serial)
    again = SensorId.from_bytes(sid.to_bytes())
    assert (again.family_code, again.serial, again.crc) == (family, serial, sid.crc)


def test_frame_word_layout():
    sid = make_sensor_id(serial=0x11A3)
    word = encode_frame(sid, raw_temp=416, sequence=3)
    assert len(word) == FRAME_BYTES
    assert word[0:2] == b"\xaa\x55"
    assert word[2:10] == sid.to_bytes()
    assert word[10:12] == struct.pack(">h", 416)
    assert word[12:14] == struct.pack(">H", 3)
    assert word[14] == crc8_oracle(word[2:14])
    assert word[15:] == bytes(17)


def test_decode_roundtrip():
    sid = make_sensor_id(serial=42)
    frame = decode_frame(encode_frame(sid, raw_temp=-880, sequence=65535))
    assert frame.sensor_id == sid
    assert frame.raw_temp == -880
    assert frame.sequence == 65535


@given(
    st.integers(min_value=0, max_value=(1 << 48) - 1),
    st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
)
def test_roundtrip_any_fields(serial, raw, seq):
    sid = make_sensor_id(serial=serial)
    frame = decode_frame(encode_frame(sid, raw, seq))
    assert (frame.sensor_id, frame.raw_temp, frame.sequence) == (sid, raw, seq)


def test_encode_rejects_bad_id():
    sid = make_sensor_id(serial=9)
    bad = SensorId(sid.family_code, sid.serial, sid.crc ^ 0xFF)
    with pytest.raises(InvalidId):
        encode_frame(bad, 0, 0)


def test_id_checks_hold_on_every_call():
    # Valid ids are checked once and remembered; an invalid one must
    # still fail on each call, not only on the first.
    sid = make_sensor_id(serial=0x5A5A)
    bad = SensorId(sid.family_code, sid.serial, sid.crc ^ 0x01)
    for _ in range(2):
        with pytest.raises(InvalidId):
            encode_frame(bad, 0, 0)
    word = encode_frame(sid, 592, 3)
    flipped_id = bytearray(word)
    flipped_id[5] ^= 0x10
    for _ in range(2):
        with pytest.raises(BadIdCrc):
            decode_frame(bytes(flipped_id))
    # The id is now known good; the frame crc is still checked.
    assert decode_frame(word).sensor_id == sid
    bad_crc = bytearray(word)
    bad_crc[14] ^= 0x01
    for _ in range(2):
        with pytest.raises(BadFrameCrc):
            decode_frame(bytes(bad_crc))
    assert encode_frame(sid, 592, 3) == word


def test_encode_rejects_out_of_range_fields():
    sid = make_sensor_id(serial=9)
    with pytest.raises(ValueError):
        encode_frame(sid, 1 << 15, 0)
    with pytest.raises(ValueError):
        encode_frame(sid, 0, 1 << 16)


def test_decode_error_types_in_check_order():
    word = bytearray(encode_frame(make_sensor_id(serial=7), 100, 1))

    with pytest.raises(FrameError):
        decode_frame(bytes(word[:-1]))

    bad_preamble = bytearray(word)
    bad_preamble[0] ^= 0x01
    with pytest.raises(BadPreamble):
        decode_frame(bytes(bad_preamble))

    bad_id = bytearray(word)
    bad_id[3] ^= 0x01
    with pytest.raises(BadIdCrc):
        decode_frame(bytes(bad_id))

    bad_body = bytearray(word)
    bad_body[10] ^= 0x01
    with pytest.raises(BadFrameCrc):
        decode_frame(bytes(bad_body))


def test_every_flip_in_covered_region_is_rejected():
    # Bytes 2..14 are protected (payload by the frame crc, the id
    # additionally by its own crc, byte 14 is the stored crc itself).
    word = encode_frame(make_sensor_id(serial=0x11A3), raw_temp=437, sequence=12)
    for byte_index in range(2, 15):
        for bit in range(8):
            corrupted = bytearray(word)
            corrupted[byte_index] ^= 1 << bit
            with pytest.raises(FrameError):
                decode_frame(bytes(corrupted))


def test_padding_is_not_checked():
    word = bytearray(encode_frame(make_sensor_id(serial=1), 100, 0))
    word[20] ^= 0xFF
    frame = decode_frame(bytes(word))
    assert frame.raw_temp == 100


def test_temp_scaling():
    assert Reading(make_sensor_id(), 0.0, 1, 0, 0.0, 0.0).temp_c == 0.0625
    assert Reading(make_sensor_id(), 0.0, 592, 0, 0.0, 0.0).temp_c == 37.0
    assert Reading(make_sensor_id(), 0.0, -880, 0, 0.0, 0.0).temp_c == -55.0
