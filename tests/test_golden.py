"""Byte-for-byte output gate: the shipped scenarios must keep their digests.

The digests are sha256 of the files `destrade <command> --scenario
scenarios/<name>.scn` writes, with `--trace` on equilibrium runs.  A change that alters any seeded
output byte fails here; a change meant to alter outputs has to say so
and re-record the table.
"""

import hashlib
import os

import pytest

from destrade.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOLDEN = {
    ("equilibrium", "city1_nofloor"): {
        "equilibrium.csv": "9fbb4c33f10e08889e6ff6521e93abe2305952aa89dd2208144d3bab2f7348c0",
        "trace.csv": "fb5d4c9e9a4bfc9d1266034e9f06fb8bceffb58040a14810e7e527379901f79e",
    },
    ("equilibrium", "city5_floor"): {
        "equilibrium.csv": "cdc76c69418b98457fce5c0d1ca7822a6efca3171a5fd41a256e9badc3b617e1",
        "trace.csv": "b999ae6eb6c5ac5271a67c2a3f827cd9a54cacf31e2708dd3a1a3e17871c7d1f",
    },
    ("equilibrium", "city40_mixed"): {
        "equilibrium.csv": "cb556bc40aceab8a5735705bdf8c0a8acfbb6ba34ace38571180d4e6f682a246",
        "trace.csv": "9c6dffe251df76f0572b5d54db7d3fbe4581536ebcfea796707042a23d536d31",
    },
    ("consensus", "consensus20"): {
        "rounds.csv": "4f6a50035b24bc9ecd61e53b9c5fd861ccca4e2f2dd054e6ad3361d1e131be51",
    },
    ("full", "full_2city"): {
        "balances.csv": "cace488ea11c139afc804109c0dceaa395292c263de1c7c54fd3bd7e41697015",
        "chain.txt": "b5c3aa6a3603a7d5b2f2fb5e693e49400ff468db56218514b10713ccd21537c7",
        "contracts.csv": "5b08850c7f24d1e14fb04ca83d3de88c07ff0fc3fe9528010afc91843c61491e",
    },
}


@pytest.mark.parametrize("command,scenario", sorted(GOLDEN))
def test_shipped_scenario_outputs_are_unchanged(tmp_path, command, scenario):
    out = tmp_path / "out"
    argv = [command, "--scenario",
            os.path.join(REPO, "scenarios", scenario + ".scn"), "--out", str(out)]
    if command == "equilibrium":
        argv.append("--trace")
    rc = main(argv)
    assert rc == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in sorted(os.listdir(out))}
    assert got == GOLDEN[command, scenario]
