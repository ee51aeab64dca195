"""Golden CLI outputs: the sha256 of every file and every stdout the commands
write on a small, noisy synthetic set.

The acceptance fixtures read accuracy 1.0 and MAE 0.0; here accuracy is
0.74-0.78, so off-diagonal confusion cells, non-zero per-position MAE sums
and every printed figure are pinned byte for byte. Temporary paths are
replaced by ``<tmp>`` before hashing. A digest changes only when an output
byte does; a change that means to alter an output must say why.
"""

import hashlib

import pytest
from click.testing import CliRunner

from bicsi.cli import main

NOISY = ("--positions", 6, "--subcarriers", 16, "--train-packets", 200,
         "--test-packets", 400, "--noise-sigma", 60, "--profile-separation", 4,
         "--burst-rate", 0.3, "--seed", 3)
SESSIONS = ("--sessions", 3, "--positions", 4, "--subcarriers", 12, "--train-packets", 120,
            "--test-packets", 120, "--noise-sigma", 30, "--profile-separation", 4,
            "--drift-sigma", 20, "--seed", 5)

EXPECTED = {
    "compare.json": "3366e4d5934bbc6b74b258772c5bd6fda22ceeda24a53fc66c6a273a12d620cc",
    "compare.stdout": "dcf98ecc5715212994eeacc25f429b1372fc36e121abfee5866111bb12edd569",
    "eval_hamming.json": "2c78746fafcfda0f134ac74e1118a8ae3155a34df6c36c1c92c3007f2b548c35",
    "eval_hamming.stdout": "ac8412f774e383512529da7b5e2c74aa8f7b3760b7ca277607c7580093412c3a",
    "eval_pearson.json": "583c6c831fe92b6ddb902771d39faa1717bb9ce548e0b84dd57f427d83e96e58",
    "eval_pearson.stdout": "c4f2ba53b3989956854ca9a42526688140d943d54c120f8ae474a5113971c868",
    "match.json": "29a76c0481095f7581d818594cbe0b2da65042721592b0741d91316b9f74fe5d",
    "match.stdout": "371a1bb8a5326f881cd238757c7e19e3a88d0de1d6500960c70508583f6ee4bd",
    "sweep.csv": "ae440cb1c314aa16966b49f6880b8a0230447ad53ec77094aaf20eb5617f52b6",
    "sweep.stdout": "f7e7884fbddab462fb2f299c030534b242b484a79821a07c4aac3230b0d7fdfc",
    "synth.files": "563d238b7dd6c24681048bbb000db114bd4f43b292518ee73307a6c10e97127d",
    "synth.stdout": "74bd742e1e74745071d7edd070f28024119240ff6eb0596d1ee8bb93adf4651f",
    "synth_sessions.stdout": "5ce1cb24b4af34170ba36b55e433d7d7f8bb670fac9935f8e58a4e4a4b590fa5",
    "temporal.csv": "050cb02ace8f0d8954a9f68998a45ba918c13e9e0670667e4c916b1e2119ea74",
    "temporal.stdout": "f6142a1ae8abedd3222a5f22297938491f7fb1698254b17bf7e1b45364886962",
    "train.db": "64000f7fc80dfeaa169ba49b7484447581074e05bed24121c46bf70e8893218b",
    "train.stdout": "60b3ba6e1fec1bc8598d2ca584270344f5669c79a30ace99e34d36cbd4bac164",
}


def _digest(data: bytes, tmp: str) -> str:
    return hashlib.sha256(data.replace(tmp.encode(), b"<tmp>")).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Digest per output name, from one run of every command."""
    tmp = tmp_path_factory.mktemp("golden")
    runner = CliRunner()
    digests = {}

    def run(name, *args, files=()):
        result = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        digests[f"{name}.stdout"] = _digest(result.output.encode(), str(tmp))
        for suffix, path in files:
            digests[f"{name}.{suffix}"] = _digest(path.read_bytes(), str(tmp))

    data, sessions = tmp / "data", tmp / "sessions"
    run("synth", "synth", *NOISY, "--out-dir", data)
    digests["synth.files"] = _digest(b"".join(
        p.name.encode() + p.read_bytes() for p in sorted(data.rglob("*.csv"))), str(tmp))
    test_manifest = data / "test" / "manifest.csv"
    db = tmp / "fp.db"
    run("train", "train", "--manifest", data / "train" / "manifest.csv", "--out-db", db,
        files=[("db", db)])
    run("eval_hamming", "eval", "--db", db, "--manifest", test_manifest,
        "--out", tmp / "eh.json", files=[("json", tmp / "eh.json")])
    run("eval_pearson", "eval", "--db", db, "--manifest", test_manifest, "--metric", "pearson",
        "--window", 7, "--out", tmp / "ep.json", files=[("json", tmp / "ep.json")])
    run("compare", "compare-metrics", "--db", db, "--manifest", test_manifest, "--window", 10,
        "--out-json", tmp / "cmp.json", files=[("json", tmp / "cmp.json")])
    run("match", "match", "--db", db, "--trace", data / "test" / "p02.csv", "--window", 10,
        "--out-json", tmp / "m.json", files=[("json", tmp / "m.json")])
    run("sweep", "sweep", "--manifest", data / "train" / "manifest.csv",
        "--out-csv", tmp / "s.csv", files=[("csv", tmp / "s.csv")])
    run("synth_sessions", "synth", *SESSIONS, "--out-dir", sessions)
    run("temporal", "temporal", "--sessions-dir", sessions, "--window", 20,
        "--out-csv", tmp / "t.csv", files=[("csv", tmp / "t.csv")])
    return digests


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_digest(outputs, name):
    assert outputs[name] == EXPECTED[name]


def test_every_output_is_pinned(outputs):
    assert sorted(outputs) == sorted(EXPECTED)
