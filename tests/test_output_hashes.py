"""Regression guard: the shipped configs' simulate outputs, byte for byte.

The configs use zero sensor noise and integer-hash or piecewise-linear
traces, so their outputs do not depend on the platform's libm.  A change
that alters any result must update the pinned hashes here and say why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from thermnet.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

PINNED = {
    "aloha.conf": {
        "events.csv": "b243102e3c24dcaf8065aa3bafbe1ab1f072bb485afce21cba3f48f3af8a1f65",
        "readings.csv": "9cf2364c3d9b3b9949ed357ee075a8b8f555335679087e24c5302e062879a3b0",
        "ledgers.csv": "90aaf4eb9413bb48ffba64dbf190d55fee5090181285c50bfc97a8036be9c140",
        "alerts.csv": "30c8b808c6bb14b007bf1d8bf4e699ff02b4821592a7796930982e1aeb2c5389",
        "agreement.csv": "c443799f805935ee277174dc23ced77eb9ec4ba514d2d57fca1b303dfb685bd2",
        "stats.csv": "6f583af1186bb42039867528ebc339cdc845d7b95d836dc0ccdc25b2d16dc6fd",
    },
    "fever.conf": {
        "events.csv": "15519aa96ad782aebc7fcb545fc7a395faf407d2cf43daff45624c037a8277f8",
        "readings.csv": "3f76e5094126124324342deadb5b29887ee91deb9c1a6cf7a6791f0bd182eb32",
        "ledgers.csv": "127d4504b9e9fa8dc1b2d02bd69b8c423a85828ce444e2ed91fdd3b725f5d65b",
        "alerts.csv": "6761f59cf59b215d8e9bc3a0ecc23833f7509de3355d51cb75a6040bd06e3587",
        "agreement.csv": "3ada6c005687608407eee73506bb5a55bd71665ebab597e8c96aeac1abb0ca51",
        "stats.csv": "0e368fddd977746f6947a01612e7bb933077d0082c686e8c05284ba5e6570127",
    },
    "interference.conf": {
        "events.csv": "358ff56dbb977b26fdd92df53d6558b594d701fad7d6acbea98831e49cfb54a2",
        "readings.csv": "6ccae0ca6cb1283ba24b65b704c16f3248134002fcd8189207b61c7bbf49ffbc",
        "ledgers.csv": "cb2b8c225f307cc05573c39b2183700a3524b24cfb72019bdf3ccde3e8e76e27",
        "alerts.csv": "30c8b808c6bb14b007bf1d8bf4e699ff02b4821592a7796930982e1aeb2c5389",
        "agreement.csv": "694e3c29e7e929c4525c991c0dd1cb3adef6122f8e4b4830508c3d5fa839ce54",
        "stats.csv": "83978c85366f4d1e5f21e3b79969c7c4ddeb2ab9d8455cf2dc1fc1c320d9fcdc",
    },
    "scenario1.conf": {
        "events.csv": "a2becd4b0577d70d12d91aba5e799cab159f68bb0e8b6fbca9f8a7f2847e7ea1",
        "readings.csv": "05c7f1a0450cb3dd7b03dff4085e616adb7dc07db27cce6482846256ccab5b2c",
        "ledgers.csv": "b85fc83a4e832274cd550d51020d08d87ab7bcbd9ee4d416c3d580389fb3718e",
        "alerts.csv": "e47cdfc54b90a59e15d12074f6f78657158fb7717fbd1ffc18dc6120951cf4d6",
        "agreement.csv": "6137400ccc21a771a6343d6398641ef7202818f4de55ae4ef3315476ae44e081",
        "stats.csv": "2f1447e67c6d9ed912c1fa1ae6a33a15d688c1dd522326376f4874aa0f0279e5",
    },
    "scenario2.conf": {
        "events.csv": "eaf3db49553b785b889e56021efd5a4bfc0e57c867b0cffbb186aaf2ba64c12d",
        "readings.csv": "6484eef7ffeeef4455b393daf39feb3283660319843096ef129226fe4ccff0ce",
        "ledgers.csv": "cb2b8c225f307cc05573c39b2183700a3524b24cfb72019bdf3ccde3e8e76e27",
        "alerts.csv": "30c8b808c6bb14b007bf1d8bf4e699ff02b4821592a7796930982e1aeb2c5389",
        "agreement.csv": "047a842351b53bc9fbd147f5dc47d95ce532b0d77bc17f21fe0e6e070f7c762f",
        "stats.csv": "f9f5d640bbd0a1acdb828a4f61e78115d512bb3d883f348d98b8c844a757c462",
    },
    "ties.conf": {
        "events.csv": "b452bb559a71e635bd424e171c0cdc1769aed49e9905f21e7287c9154194ae56",
        "readings.csv": "4fd67bd9c2ad0135038ab9b73179cf0c2a5f886fab8d4611d182e1736bf69954",
        "ledgers.csv": "c1c6f01274218209faec0b3ed50058efd5574b6498f45e92e823d9d76085030c",
        "alerts.csv": "30c8b808c6bb14b007bf1d8bf4e699ff02b4821592a7796930982e1aeb2c5389",
        "agreement.csv": "09ce55e2a5eef82699ada0da7a9f144ea5e4ce252e1c6f341c439245c9abd178",
        "stats.csv": "9cca817fa4ac44a73e1eb499f84bf8804cb19d8b0b2578c2b17e687647cf8b0d",
    },
}


def test_every_shipped_config_is_pinned():
    assert sorted(p.name for p in CONFIGS.glob("*.conf")) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_simulate_outputs_match_pinned_hashes(tmp_path, name):
    assert main(["simulate", "--config", str(CONFIGS / name), "--out", str(tmp_path)]) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in PINNED[name]}
    assert got == PINNED[name]
