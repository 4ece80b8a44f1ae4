"""Byte gate for the command outputs that `bench/golden.json` does not cover.

The `curves` CSVs are pinned by the benchmark's golden digests; these pin the
stdout of `verify` at the default seed, of `game`, of
`attack --out attack.csv` at nu = 0.05 and at nu = 0 (chi's nu -> 0 limit)
together with the CSV it writes, of `partitions --parties 4`, whose
order nothing else fixes, and of `relay`, which fixes the generator's stream.
A digest that moves means a printed digit moved: explain it before
re-recording.
"""

import hashlib

from ckabounds.cli import main


def sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def stdout_of(args, capsys) -> str:
    capsys.readouterr()
    assert main(args) == 0
    return capsys.readouterr().out


def test_verify_stdout(capsys):
    out = stdout_of(["verify"], capsys)
    assert sha256(out) == "29b8ce8ef18650def5558349e2e5ce22f7f8a447000ffff1192e6460ef9a612c"


def test_game_stdout(capsys):
    out = stdout_of(["game"], capsys)
    assert sha256(out) == "a44e3c1a097b2952d7451a444b7edce17b7ae2d17986a12ea8b8350b9dee781e"


def test_attack_stdout_and_csv(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the stdout names the CSV path
    out = stdout_of(["attack", "--nu-min", "0.05", "--out", "attack.csv"], capsys)
    assert sha256(out) == "ab2665c4cb4c5a7fb10c8f9161ddb201cf112504b3b6fcb519cf46151174f8eb"
    csv = (tmp_path / "attack.csv").read_text()
    assert sha256(csv) == "145b2fcb09e01aac70891a146e280a56d442fa6b7772e9bbebbe6d34008cfcf9"


def test_attack_at_zero_noise_stdout_and_csv(capsys, tmp_path, monkeypatch):
    # chi's nu -> 0 limit, which the attack reads with local weight 0
    monkeypatch.chdir(tmp_path)
    out = stdout_of(["attack", "--nu-min", "0", "--out", "attack.csv"], capsys)
    assert sha256(out) == "faa7f8cf237b1045e93286f484e1aeacdf5cd8c1d585037a1e605b370f6b6169"
    csv = (tmp_path / "attack.csv").read_text()
    assert sha256(csv) == "5925f64746163e06f26b155c378dd2cf477aae0286423119c8bbe4c7340f0ee3"


def test_partitions_stdout(capsys):
    out = stdout_of(["partitions", "--parties", "4"], capsys)
    assert out == ("{0,1,2}{3}\n{0,1,3}{2}\n{0,1}{2,3}\n{0,1}{2}{3}\n{0,2,3}{1}\n"
                   "{0,2}{1,3}\n{0,2}{1}{3}\n{0,3}{1,2}\n{0}{1,2,3}\n{0}{1,2}{3}\n"
                   "{0,3}{1}{2}\n{0}{1,3}{2}\n{0}{1}{2,3}\n"
                   "13 nontrivial partitions of 4 parties\n")


def test_relay_stdout(capsys):
    # the default flags, then a negative seed (masked to 64 bits) and a 70-bit draw
    assert stdout_of(["relay"], capsys) == (
        "relay over 3 parties, key_len=8, seed=12345\n"
        "secret r    = 13\n"
        "edge keys   = 98 c0\n"
        "broadcasts  = 8b d3\n"
        "final keys  = 13 13 13\n"
        "messages = 2, all parties agree: True\n")
    out = stdout_of(["relay", "--parties", "4", "--key-len", "70", "--seed", "-1"], capsys)
    assert out == (
        "relay over 4 parties, key_len=70, seed=-1\n"
        "secret r    = 3ae00bb4d95291e75f\n"
        "edge keys   = 3e4b32797180000023 0d1b257ccc9beaf1b1 1b0b594fe0c40681f7\n"
        "broadcasts  = 04ab39cda8d291e77c 37fb2ec815c97b16ee 21eb52fb39969766a8\n"
        "final keys  = 3ae00bb4d95291e75f 3ae00bb4d95291e75f 3ae00bb4d95291e75f "
        "3ae00bb4d95291e75f\n"
        "messages = 3, all parties agree: True\n")
