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
        "events.csv": "8769cee799fd322b000b99b7fc438d80c2021bffa2e7e89e9faa513656495d6e",
        "readings.csv": "e20b84039f7854fd881a42898fd55dbb1f2c4ba6c2a5b1bbb28c4f3a816a4be5",
        "ledgers.csv": "1478b87e5912b2d5d2ca395ff82b4c3e7333e802b57fdfe2895b88622554c710",
        "alerts.csv": "041228dbf22f871361f7cf8047a2292c6d166b22cdf2cb3f81c06bb173f2def9",
        "agreement.csv": "d696349ef9d682d09e2e872cd56431f835d07236cab803b319b852549a0891db",
        "stats.csv": "6f583af1186bb42039867528ebc339cdc845d7b95d836dc0ccdc25b2d16dc6fd",
    },
    "fever.conf": {
        "events.csv": "2499ae1137883b0735cfe32148ac47f17d6529e2707e845b82d2a3921e16d755",
        "readings.csv": "49f582c5e63640ce03e0a2657ff9a8decf336783fa3687981939a549fad2a42d",
        "ledgers.csv": "ac52d84c29529749a93abdff1ed38a65d4059f66bd885c1de059d3f3d6aad5ee",
        "alerts.csv": "6b6f15d999087f3dc4a2eb33d1dae8699752b6352b3fc4b4ad8fa7fbb2ef3407",
        "agreement.csv": "93e3d9826c6408ea2f2bbe33c5794d0d29318f4ed8490b543c4958ce3ac4a1bf",
        "stats.csv": "0e368fddd977746f6947a01612e7bb933077d0082c686e8c05284ba5e6570127",
    },
    "interference.conf": {
        "events.csv": "d2e809a0aadbe66a478f8e71e525ba762cf908006f7e9f2295e6d58149b1b60c",
        "readings.csv": "fe74952b4974ca86288e60e05d86d9e0304f319b5e89db633ef31582c1df4a83",
        "ledgers.csv": "cd61a15e922b606f458d33b4575ae51dc2325cffea0434b619902f443b5da15c",
        "alerts.csv": "041228dbf22f871361f7cf8047a2292c6d166b22cdf2cb3f81c06bb173f2def9",
        "agreement.csv": "a69ef3f1e25e32646eadcf77b5d9f3a3eee1b83fbe58839a674bae23d87d1468",
        "stats.csv": "83978c85366f4d1e5f21e3b79969c7c4ddeb2ab9d8455cf2dc1fc1c320d9fcdc",
    },
    "mixed_traces.conf": {
        "events.csv": "7cf04b5c0a1fd144f89e3cc342cc19a477b95ae9f4d1cbc178c6bb8c82fa9e6d",
        "readings.csv": "d23aebd6f9e9dd0f7ca352dd2ba066e80f08156a503adc99d03d1a1b7bf94b6f",
        "ledgers.csv": "9d1df6a500d8ede33ea0eb16ed96fba144ae490c2f111e3f89c44eb1db41d318",
        "alerts.csv": "33b26d9ce3e25800397225179fdf2af53572dfe4e959b3aec8b0c64662563045",
        "agreement.csv": "86c44e96a35bde77b25760bf69be9ec05732b709541524208484eb0c5c2b8369",
        "stats.csv": "575c60c547ed9b974ce180a5de45c6675d839068bdfb1b1c652eceffef961c20",
    },
    "scenario1.conf": {
        "events.csv": "6cf2c7d8f9fa1b9a2d40b51abab38b8074f250a209f0fb0721fd8c367795be58",
        "readings.csv": "73284c6647bcd5b49a6a54ebb6288bc0c97d8c72d6cc366965d148e37f3ded52",
        "ledgers.csv": "48521996972f2d43bd204e7fc0f42bfdeeb79141f2b9549c0ce93a6fe9b1353e",
        "alerts.csv": "22c2edd795f4280d0ed674b9229e94c2a23053e79ae94e0fddc1bfbdf0b77c3c",
        "agreement.csv": "a4fbc5e0f105c721bfbdbbfa18c62fb94e197ce6ef2adb78df412eb2533bf07a",
        "stats.csv": "2f1447e67c6d9ed912c1fa1ae6a33a15d688c1dd522326376f4874aa0f0279e5",
    },
    "scenario2.conf": {
        "events.csv": "fa430b4dcc7a0c9bc6ababf3677cfca33aaff593f4cff4afb71ba8c8c5b5acea",
        "readings.csv": "907493341cca60cc2952a230331cc459eece63b030699e3d7ecae67838319906",
        "ledgers.csv": "cd61a15e922b606f458d33b4575ae51dc2325cffea0434b619902f443b5da15c",
        "alerts.csv": "041228dbf22f871361f7cf8047a2292c6d166b22cdf2cb3f81c06bb173f2def9",
        "agreement.csv": "6e70891440bf0523c6845ba304a59bac6390d78571c060628c87667ff613d6bd",
        "stats.csv": "f9f5d640bbd0a1acdb828a4f61e78115d512bb3d883f348d98b8c844a757c462",
    },
    "ties.conf": {
        "events.csv": "249a744f7f13df7cb45553f2a445cb1eccd7c54d8a412549d3d13733bbd259f6",
        "readings.csv": "e88e1683a7d182384d5a0858b3aae546ae6d5eee2af3d210fa4b062bb5c633b1",
        "ledgers.csv": "d8186d17696bd3696290315f26b10824fa10ca396c64cc2019780f57d9bad54a",
        "alerts.csv": "041228dbf22f871361f7cf8047a2292c6d166b22cdf2cb3f81c06bb173f2def9",
        "agreement.csv": "c39b3b9a7e5eafbd4d05b02b4b16ddab96452df46f63d8e12a789985da14c9b7",
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
