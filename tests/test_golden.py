"""Golden bytes: SHA-256 of every subcommand's output on fixed inputs.

Criterion 10 checks that repeat runs agree; these digests pin the bytes
themselves, so a refactor that changes any rendered digit, column or
random stream layout fails here.  A deliberate change of seeded outputs
updates the digests and says so in CHANGES.md.
"""

import hashlib
import json
import math

import pytest

from lecamjd.cli import main

CONFIG = {
    "drift": {"kind": "sine", "offset": 0.1, "amplitude": 0.05,
              "angular_frequency": 2 * math.pi},
    "sigma": {"kind": "linear", "intercept": 1.0, "slope": 0.5},
    "intensity": {"kind": "constant", "value": 3.0},
    "jump_law": {"kind": "gaussian", "mean": 2.0, "sd": 0.5},
    "epsilon_n": 0.2,
    "horizon": 1.0,
    "n": 32,
}
LATTICE_CONFIG = dict(CONFIG, jump_law={"kind": "lattice",
                                        "values": [-1, 2],
                                        "probs": [0.25, 0.75]})

#: 24 increments; every fifth is far outside the truncate ball, so the
#: truncate filter redraws rows 0, 5, 10, 15 and 20 from their own streams
INCREMENTS = [(0.9 + i / 8 if i % 5 == 0 else 0.01 * math.sin(i))
              * (-1) ** i for i in range(24)]

GOLDEN = {
    "simulate":
        "eec00ad02b4b3cab8de9e661e79b6428b1bdbc147baa42beeee0b69d9e52bc8e",
    "simulate_lattice":
        "0a9a7b18409349483d97f03c9b052d18ef2104d33a03949960da4813e39409f7",
    "filter_round":
        "2186d318be359ec33c481366f78582c0feb49f1865725f79527147939d5a0c1b",
    "filter_truncate":
        "a76f60aacf17428486804016d78cf66c88250e3a1a5f27c28b7fd26c5f470fb0",
    "filter_truncate_times":
        "fea44c48ffdca87e979b0b1cfae1c5c6b994df6e0749d1eaeb58776e21719e76",
    "bounds_auto":
        "a69c3e968b21751c32928e57f069a16c32071dcee3218e62c485186308395caa",
    "bounds_round":
        "39d6ababa64003fde4ebeac7e9c1a053acdd4edc4cef3eabe6fc27b66ae16006",
    "bounds_bernoulli":
        "4548c84750ed19fc9732d4002c6b3214c588c8aa7d33343c67dde3d5c0793c7d",
    "convergence":
        "22bf13a9ee443107abe894131171d8cf5c25a19836c138a71fa5dd720048c1a7",
    "risk_transfer":
        "b4e3eb2145a350aab96341722433cf01e554f87b5ee3d9199762d11bcb784dd4",
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, data in (("cfg", CONFIG), ("lat", LATTICE_CONFIG)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data), encoding="utf-8")
    paths["inc"] = tmp_path / "inc.csv"
    paths["inc"].write_text(
        "increment\n" + "".join(f"{v!r}\n" for v in INCREMENTS),
        encoding="utf-8")
    paths["inc_t"] = tmp_path / "inc_t.csv"
    paths["inc_t"].write_text(
        "t_i,increment\n" + "".join(f"{(i + 1) / 24!r},{v!r}\n"
                                    for i, v in enumerate(INCREMENTS)),
        encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}


def argv_for(name, f):
    return {
        "simulate": ["simulate", "--config", f["cfg"], "--seed", "7"],
        "simulate_lattice": ["simulate", "--config", f["lat"], "--seed", "11"],
        "filter_round": ["filter", f["inc"]],
        "filter_truncate": ["filter", f["inc"], "--kernel", "truncate",
                            "--config", f["cfg"], "--seed", "4"],
        "filter_truncate_times": ["filter", f["inc_t"], "--kernel",
                                  "truncate", "--config", f["cfg"],
                                  "--seed", "4", "--L", "0",
                                  "--epsilon", "0.25"],
        "bounds_auto": ["bounds", "--config", f["cfg"]],
        "bounds_round": ["bounds", "--config", f["lat"]],
        "bounds_bernoulli": ["bounds", "--config", f["lat"], "--kernel",
                             "bernoulli"],
        "convergence": ["convergence", "--config", f["cfg"], "--n-list",
                        "4,8,16"],
        "risk_transfer": ["risk-transfer", "--config", f["lat"], "--n-list",
                          "8,16", "--reps", "3", "--seed", "9"],
    }[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(name, files, capsys):
    assert main(argv_for(name, files)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[name]


def test_truncate_run_redraws_several_rows(files, capsys):
    assert main(argv_for("filter_truncate", files)) == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    got = [float(line.split(",")[1]) for line in lines]
    redrawn = [i for i, (a, b) in enumerate(zip(INCREMENTS, got)) if a != b]
    assert redrawn == [0, 5, 10, 15, 20]
