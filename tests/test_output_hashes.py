"""Regression guard: the shipped configs' simulate outputs, byte for byte.

All configs but ``mixed_traces.conf`` use zero sensor noise and
integer-hash or piecewise-linear traces, so their outputs do not depend
on the platform's libm.  ``mixed_traces.conf`` has sensor noise and a
sinusoid, so its pins also assume CPython's ``math.log``, ``cos`` and
``sin`` round as glibc's do.  A change that alters any result must
update the pinned hashes here and say why in CHANGES.md.
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
        "readings.csv": "b5d1ad314603a0b2808b85c6a4e901a1fc08a1a000c4b4901dc374e4b6b4abc6",
        "ledgers.csv": "127d4504b9e9fa8dc1b2d02bd69b8c423a85828ce444e2ed91fdd3b725f5d65b",
        "alerts.csv": "7a50a0b0fe8fcd9a8667c52d05e5149730f07f149d1faed292991f62529e639e",
        "agreement.csv": "3ada6c005687608407eee73506bb5a55bd71665ebab597e8c96aeac1abb0ca51",
        "stats.csv": "0e368fddd977746f6947a01612e7bb933077d0082c686e8c05284ba5e6570127",
    },
    "interference.conf": {
        "events.csv": "358ff56dbb977b26fdd92df53d6558b594d701fad7d6acbea98831e49cfb54a2",
        "readings.csv": "cd6b3c14cbc2059887a0d3eed6570f67c65ef2f6f3e49dac5ff97ebce8292fc0",
        "ledgers.csv": "cb2b8c225f307cc05573c39b2183700a3524b24cfb72019bdf3ccde3e8e76e27",
        "alerts.csv": "30c8b808c6bb14b007bf1d8bf4e699ff02b4821592a7796930982e1aeb2c5389",
        "agreement.csv": "694e3c29e7e929c4525c991c0dd1cb3adef6122f8e4b4830508c3d5fa839ce54",
        "stats.csv": "83978c85366f4d1e5f21e3b79969c7c4ddeb2ab9d8455cf2dc1fc1c320d9fcdc",
    },
    "mixed_traces.conf": {
        "events.csv": "144b48bac61819b0210231eaac52364eb54d5b67a02a21552712e2a543f7d708",
        "readings.csv": "6644c2e31c8340e2cf7cee1c00672d1144209ca3f61d544e8d0fdbee6c25597a",
        "ledgers.csv": "17b692b4e960d8d59a52f94112d8c8b697060e7661e0647e15e44eee9f056618",
        "alerts.csv": "43d98ee7e5a31f89b5ebf4ccc5e22871c6fea26b9ab75dc0f2cd50e28b4fad73",
        "agreement.csv": "d011468e9bab8d854a2d9ee4088bec71842f35fe20af9a758952fc9e83aaddb1",
        "stats.csv": "575c60c547ed9b974ce180a5de45c6675d839068bdfb1b1c652eceffef961c20",
    },
    "scenario1.conf": {
        "events.csv": "a2becd4b0577d70d12d91aba5e799cab159f68bb0e8b6fbca9f8a7f2847e7ea1",
        "readings.csv": "cd68450eb4b956bff9a799f560aebf3a97ace698115a994193fed43e335a8b73",
        "ledgers.csv": "b85fc83a4e832274cd550d51020d08d87ab7bcbd9ee4d416c3d580389fb3718e",
        "alerts.csv": "e47cdfc54b90a59e15d12074f6f78657158fb7717fbd1ffc18dc6120951cf4d6",
        "agreement.csv": "6137400ccc21a771a6343d6398641ef7202818f4de55ae4ef3315476ae44e081",
        "stats.csv": "2f1447e67c6d9ed912c1fa1ae6a33a15d688c1dd522326376f4874aa0f0279e5",
    },
    "scenario2.conf": {
        "events.csv": "eaf3db49553b785b889e56021efd5a4bfc0e57c867b0cffbb186aaf2ba64c12d",
        "readings.csv": "2ac25df90c5127a732db86ed7c5a4962c0b7bfc67cd4dafe424d8663c73ff491",
        "ledgers.csv": "cb2b8c225f307cc05573c39b2183700a3524b24cfb72019bdf3ccde3e8e76e27",
        "alerts.csv": "30c8b808c6bb14b007bf1d8bf4e699ff02b4821592a7796930982e1aeb2c5389",
        "agreement.csv": "047a842351b53bc9fbd147f5dc47d95ce532b0d77bc17f21fe0e6e070f7c762f",
        "stats.csv": "f9f5d640bbd0a1acdb828a4f61e78115d512bb3d883f348d98b8c844a757c462",
    },
    "ties.conf": {
        "events.csv": "b452bb559a71e635bd424e171c0cdc1769aed49e9905f21e7287c9154194ae56",
        "readings.csv": "b633ed7cf31d01dcc8431954131a9bba8858be9a2dd8ed53e856c2ec439f8e21",
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
