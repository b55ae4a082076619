"""Golden CLI bytes: every subcommand and format on small fixed inputs.

Each case runs `kindep.cli.main` in a scratch directory holding a 6-vertex
edge list and a 5-vertex DIMACS file, then hashes the exit code, stdout and
every file named by --out/--trace.  The digests were recorded before the
CLI's renderers were merged into one writer; any byte that moves fails here.
"""

import hashlib

import pytest

from kindep.cli import main

EDGE_LIST = "6 7\n0 1\n0 2\n1 2\n2 3\n3 4\n4 5\n3 5\n"
DIMACS = "c five\np edge 5 6\ne 1 2\ne 1 3\ne 2 3\ne 3 4\ne 4 5\ne 2 5\n"
SET = "0 3\n"

J6 = "--family j:6"
GNM = "--family gnm:n=16,m=32 --seed 3"
EL = "--file g6.txt"
DIM = "--file g5.col"

CASES = [
    ("gen --family j:6", "197dbf967b5a3086"),
    (f"gen {GNM} --out gen.txt", "dfde41c788bd6c3c"),
    (f"bound {J6} --k 1", "ec62b29682495990"),
    (f"bound {EL} --k 0 --format json", "7ca9ff0463db2601"),
    (f"bound {DIM} --k 1 --format csv", "f3942ae9e93fd17c"),
    (f"bound {GNM} --k 2 --format json --out bound.json", "ea97aae1fd1cc769"),
    (f"bound {GNM} --k 1 --format csv --out bound.csv", "1a2af8a818cfe9ff"),
    (f"run {J6} --k 1 --algo alg2", "a8a4cb0fc28e5e90"),
    (f"run {J6} --k 1 --algo alg1 --format json", "a5a76f4aafa92f36"),
    (f"run {EL} --k 0 --algo greedy --format csv", "606d3d14e7a9c63a"),
    (f"run {EL} --k 1 --algo lovasz --format json", "656181694f33505d"),
    (f"run {DIM} --k 1 --algo alg1 --format csv", "67feffebb30c1683"),
    (f"run {DIM} --k 0 --algo lovasz", "e78d4f8eca7e3645"),
    (f"run {GNM} --k 1 --algo greedy --out run.set --trace run.log", "025f77b03189d318"),
    (f"run {GNM} --k 2 --algo alg2 --format json --out run2.set --trace run2.log", "d41187cd7b7dab82"),
    (f"run {GNM} --k 1 --algo lovasz --format csv --trace run3.log", "afc11440ef0b5d92"),
    (f"exact {J6} --k 1", "409f9891ad678ea2"),
    (f"exact {EL} --k 1 --format json --out exact.set", "83bb68a6661836d1"),
    (f"exact {DIM} --k 0 --chi", "b9490968067ba44d"),
    (f"exact {GNM} --k 1 --chi --format json", "bf846bcdc66c08fb"),
    (f"exact {GNM} --k 2 --out exact2.set", "687e54e49cfdba48"),
    (f"verify {EL} --k 1 --set set.txt", "d443d19d6e7ac638"),
    (f"verify {DIM} --k 0 --set set.txt --format json", "e33f613d5362f9ee"),
    ("table", "491771fe6d240659"),
    ("table --format json", "29c1bf8970b120e1"),
    ("table --format csv --out table.csv", "d28d8b581f3f2536"),
    ("bench --family gnm:n=16,m=32 --seed 3 --k 1 --reps 2", "b21ae91e8246152e"),
    ("bench --family j:6 --k 1 --reps 2 --format json", "24355bb1c217505c"),
    ("bench --family gnm:n=16,m=32 --seed 3 --k 2 --limit 10 --out bench.csv", "beba6144ca48ce0b"),
    ("bench --family gnm:n=16,m=32 --seed 3 --k 0 --format json --out bench.json", "0adf76ca315bcc96"),
]


def run_digest(argv: list[str], capsys) -> str:
    code = main(argv)
    h = hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode())
    for flag, name in zip(argv, argv[1:]):
        if flag in ("--out", "--trace"):
            with open(name, "rb") as fh:
                h.update(b"\0" + fh.read())
    return h.hexdigest()


@pytest.mark.parametrize("line,expected", CASES, ids=[c[0] for c in CASES])
def test_cli_bytes(line, expected, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g6.txt").write_text(EDGE_LIST)
    (tmp_path / "g5.col").write_text(DIMACS)
    (tmp_path / "set.txt").write_text(SET)
    assert run_digest(line.split(), capsys)[:16] == expected
