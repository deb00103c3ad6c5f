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
        "events.csv": "68a91e68d608a33548939adc30c54b098922427562e902308405d4153b0432d6",
        "readings.csv": "9cf2364c3d9b3b9949ed357ee075a8b8f555335679087e24c5302e062879a3b0",
        "ledgers.csv": "90aaf4eb9413bb48ffba64dbf190d55fee5090181285c50bfc97a8036be9c140",
        "alerts.csv": "30c8b808c6bb14b007bf1d8bf4e699ff02b4821592a7796930982e1aeb2c5389",
        "agreement.csv": "c443799f805935ee277174dc23ced77eb9ec4ba514d2d57fca1b303dfb685bd2",
        "stats.csv": "6f583af1186bb42039867528ebc339cdc845d7b95d836dc0ccdc25b2d16dc6fd",
    },
    "fever.conf": {
        "events.csv": "d4aeb616258201295535f2507fe51d9ea5f1590dc963f045c99d4b8071e75cf5",
        "readings.csv": "b5d1ad314603a0b2808b85c6a4e901a1fc08a1a000c4b4901dc374e4b6b4abc6",
        "ledgers.csv": "127d4504b9e9fa8dc1b2d02bd69b8c423a85828ce444e2ed91fdd3b725f5d65b",
        "alerts.csv": "7a50a0b0fe8fcd9a8667c52d05e5149730f07f149d1faed292991f62529e639e",
        "agreement.csv": "3ada6c005687608407eee73506bb5a55bd71665ebab597e8c96aeac1abb0ca51",
        "stats.csv": "0e368fddd977746f6947a01612e7bb933077d0082c686e8c05284ba5e6570127",
    },
    "interference.conf": {
        "events.csv": "4129d75fef2a69b0244f27426516c39fe0aecf0f3ac41a38548fe4d3f68bb219",
        "readings.csv": "cd6b3c14cbc2059887a0d3eed6570f67c65ef2f6f3e49dac5ff97ebce8292fc0",
        "ledgers.csv": "cb2b8c225f307cc05573c39b2183700a3524b24cfb72019bdf3ccde3e8e76e27",
        "alerts.csv": "30c8b808c6bb14b007bf1d8bf4e699ff02b4821592a7796930982e1aeb2c5389",
        "agreement.csv": "694e3c29e7e929c4525c991c0dd1cb3adef6122f8e4b4830508c3d5fa839ce54",
        "stats.csv": "83978c85366f4d1e5f21e3b79969c7c4ddeb2ab9d8455cf2dc1fc1c320d9fcdc",
    },
    "mixed_traces.conf": {
        "events.csv": "67001b31135bd948c07d5cc23c82f744cccb3f346a259aaa27b8ef940a7b392b",
        "readings.csv": "6644c2e31c8340e2cf7cee1c00672d1144209ca3f61d544e8d0fdbee6c25597a",
        "ledgers.csv": "17b692b4e960d8d59a52f94112d8c8b697060e7661e0647e15e44eee9f056618",
        "alerts.csv": "43d98ee7e5a31f89b5ebf4ccc5e22871c6fea26b9ab75dc0f2cd50e28b4fad73",
        "agreement.csv": "d011468e9bab8d854a2d9ee4088bec71842f35fe20af9a758952fc9e83aaddb1",
        "stats.csv": "575c60c547ed9b974ce180a5de45c6675d839068bdfb1b1c652eceffef961c20",
    },
    "scenario1.conf": {
        "events.csv": "afa9eb889321bc2b00cba53abe8015f4640c34602e19c02597bd0da8780c3156",
        "readings.csv": "cd68450eb4b956bff9a799f560aebf3a97ace698115a994193fed43e335a8b73",
        "ledgers.csv": "b85fc83a4e832274cd550d51020d08d87ab7bcbd9ee4d416c3d580389fb3718e",
        "alerts.csv": "e47cdfc54b90a59e15d12074f6f78657158fb7717fbd1ffc18dc6120951cf4d6",
        "agreement.csv": "6137400ccc21a771a6343d6398641ef7202818f4de55ae4ef3315476ae44e081",
        "stats.csv": "2f1447e67c6d9ed912c1fa1ae6a33a15d688c1dd522326376f4874aa0f0279e5",
    },
    "scenario2.conf": {
        "events.csv": "c693bafd60f5a2c16b613fbc2e0c1ef992783e8ec59335077862e1290346754d",
        "readings.csv": "2ac25df90c5127a732db86ed7c5a4962c0b7bfc67cd4dafe424d8663c73ff491",
        "ledgers.csv": "cb2b8c225f307cc05573c39b2183700a3524b24cfb72019bdf3ccde3e8e76e27",
        "alerts.csv": "30c8b808c6bb14b007bf1d8bf4e699ff02b4821592a7796930982e1aeb2c5389",
        "agreement.csv": "047a842351b53bc9fbd147f5dc47d95ce532b0d77bc17f21fe0e6e070f7c762f",
        "stats.csv": "f9f5d640bbd0a1acdb828a4f61e78115d512bb3d883f348d98b8c844a757c462",
    },
    "ties.conf": {
        "events.csv": "798b956c1fe1a89fb9c7b32ded459ada1df9df3879b8defedce368a0615e6dde",
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
