import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kindep import formats, oracle
from kindep.cli import main
from kindep.formats import load_graph
from kindep.generators import j_graph, make_graph, parse_family


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_round_trip_family(self, capsys, tmp_path):
        out = tmp_path / "j6.txt"
        code, _, _ = run_cli(capsys, "gen", "--family", "j:6", "--out", str(out))
        assert code == 0
        assert load_graph(out) == j_graph(6)

    def test_round_trip_random(self, capsys, tmp_path):
        out = tmp_path / "g.txt"
        code, _, _ = run_cli(
            capsys, "gen", "--family", "gnm:n=30,m=60,seed=7", "--out", str(out)
        )
        assert code == 0
        g = load_graph(out)
        spec = parse_family("gnm:n=30,m=60,seed=7")
        assert g == make_graph(spec)

    def test_stdout_default(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "complete:3")
        assert code == 0
        assert out.splitlines()[0] == "3 3"


class TestBound:
    def test_main_bound_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--family", "complete:5", "--k", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        row = next(r for r in doc["rows"] if r["name"] == "main_bound")
        assert row["value"] == "15/7" and row["ceil"] == 3

    def test_edgeless_degree_sum(self, capsys, tmp_path):
        f = tmp_path / "empty10.txt"
        f.write_text("10 0\n")
        code, out, _ = run_cli(
            capsys, "bound", "--file", str(f), "--k", "0", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        row = next(r for r in doc["rows"] if r["name"] == "caro_tuza_sum")
        assert row["value"] == "10/1"

    def test_dimacs_file_whose_first_token_ends_in_a_tab(self, capsys, tmp_path):
        f = tmp_path / "k3.col"
        f.write_text("c\tmade by hand\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        code, out, err = run_cli(capsys, "bound", "--file", str(f), "--k", "1")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "bound", "--family", "complete:3", "--k", "1")[1]

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--family", "j:6", "--k", "1")
        assert code == 0
        assert "main_bound" in out and "2/1" in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--family", "j:6", "--k", "1", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "value", "ceil", "applicable", "note"]
        assert any(r[0] == "main_bound" and r[1] == "2/1" for r in rows)


class TestRun:
    def test_alg2_on_j6(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--family", "j:6", "--k", "1", "--algo", "alg2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["size"] == 2 and doc["status"] == "PASS"
        assert doc["guarantee"] == "2/1" and doc["needed"] == 2

    def test_greedy_on_k4(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--family", "complete:4", "--k", "1", "--algo", "greedy",
            "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0 and doc["size"] == 2 and doc["guarantee"] == "3/2"

    def test_deterministic_size_on_random(self, capsys):
        outs = set()
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "run", "--family", "gnm:n=30,m=60,seed=7", "--k", "2",
                "--algo", "alg2", "--format", "json",
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_trace_and_set_files(self, capsys, tmp_path):
        trace = tmp_path / "trace.log"
        setfile = tmp_path / "set.txt"
        code, out, _ = run_cli(
            capsys, "run", "--family", "thm12_2:2", "--k", "2", "--algo", "alg2",
            "--out", str(setfile), "--trace", str(trace),
        )
        assert code == 0
        assert "PARTITION" in trace.read_text()
        code2, out2, _ = run_cli(
            capsys, "verify", "--family", "thm12_2:2", "--k", "2",
            "--set", str(setfile),
        )
        assert code2 == 0 and out2.strip() == "true"

    def test_all_algorithms_pass(self, capsys):
        for algo in ("greedy", "alg1", "alg2", "lovasz"):
            code, out, _ = run_cli(
                capsys, "run", "--family", "gnm:n=20,m=50,seed=11", "--k", "1",
                "--algo", algo,
            )
            assert code == 0 and "PASS" in out

    def test_lovasz_on_empty_graph(self, capsys, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("0 0\n")
        log = tmp_path / "run.log"
        code, out, _ = run_cli(
            capsys, "run", "--file", str(f), "--k", "1", "--algo", "lovasz",
            "--trace", str(log),
        )
        assert code == 0
        assert out == "algo=lovasz k=1 size=0 guarantee=0/1 need>=0 verify=PASS\n"
        assert log.read_text() == ""


class TestExact:
    def test_j6(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--family", "j:6", "--k", "1")
        assert code == 0 and out.strip() == "2"

    def test_sparse_family(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--family", "thm14_6:2", "--k", "2")
        assert code == 0 and out.strip() == "9"

    def test_chi_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--family", "complete:4", "--k", "1", "--chi"
        )
        assert code == 0 and out.strip() == "2"
        code, out, _ = run_cli(
            capsys, "exact", "--family", "complete:4", "--k", "1", "--chi",
            "--format", "json",
        )
        assert json.loads(out) == {"chi": 2, "k": 1, "n": 4}

    def test_limit_exceeded_reports_limit(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "--family", "gnm:n=30,m=10,seed=1", "--k", "0",
            "--limit", "25",
        )
        assert code == 2 and "25" in err

    def test_chi_default_limit(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--chi", "--family", "complete:25", "--k", "1")
        assert code == 2 and "limit 20" in err
        code, out, _ = run_cli(
            capsys, "exact", "--chi", "--family", "complete:25", "--k", "1", "--limit", "25"
        )
        assert code == 0 and out == "13\n"

    def test_huge_k(self, capsys):
        # Past any index size: the search caps k at n, where nothing changes.
        code, out, err = run_cli(
            capsys, "exact", "--family", "complete:3", "--k", "99999999999999999999"
        )
        assert (code, out, err) == (0, "3\n", "")


class TestVerify:
    def test_false_for_bad_set(self, capsys, tmp_path):
        f = tmp_path / "set.txt"
        f.write_text("0 1 2\n")
        code, out, _ = run_cli(
            capsys, "verify", "--family", "complete:4", "--k", "1", "--set", str(f)
        )
        assert code == 0 and out.strip() == "false"

    def test_json_output(self, capsys, tmp_path):
        f = tmp_path / "set.txt"
        f.write_text("0 1\n")
        code, out, _ = run_cli(
            capsys, "verify", "--family", "complete:4", "--k", "1",
            "--set", str(f), "--format", "json",
        )
        assert code == 0 and json.loads(out) == {"k_independent": True}


class TestTable:
    def test_row_d6(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        row = next(r for r in rows if r["d"] == 6)
        assert row["lower"] == "1/3" and row["upper"] == "2/5"

    def test_discrepancy_column_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        d8 = next(r for r in rows if r[0] == "8")
        assert "5/13" in d8[6] and d8[1] == "5/18"

    def test_text_flags_discrepancy(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert out.count("!") == 1 and "5/13" in out

    def test_no_limit_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--limit", "25"])
        assert exc.value.code == 2 and "--limit" in capsys.readouterr().err


class TestBench:
    def test_csv_shape_and_content(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--family", "gnm:n=12,m=18", "--k", "1",
            "--reps", "5", "--seed", "77",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        rows = list(csv.reader(io.StringIO("\n".join(lines))))
        assert rows[0] == [
            "instance", "n", "m", "k", "seed", "caro_tuza_sum",
            "first_approach_bound", "main_bound", "alg2_size", "alpha_k",
        ]
        assert len(rows) == 6
        for r in rows[1:]:
            assert r[1] == "12" and r[2] == "18"
            main_b = Fraction(*map(int, r[7].split("/")))
            first = Fraction(*map(int, r[6].split("/")))
            assert main_b >= first
            assert int(r[8]) <= int(r[9])
        summary = [l for l in out.splitlines() if l.startswith("#")]
        assert any("mean_alg2_over_alpha" in l for l in summary)

    def test_reps_one_matches_single_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--family", "gnm:n=10,m=15,seed=3", "--k", "1",
            "--reps", "1",
        )
        rows = list(csv.reader(io.StringIO(out)))
        code2, out2, _ = run_cli(
            capsys, "run", "--family", "gnm:n=10,m=15,seed=3", "--k", "1",
            "--algo", "alg2", "--format", "json",
        )
        assert rows[1][8] == str(json.loads(out2)["size"])

    def test_mean_ratio_at_most_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--family", "gnm:n=9,m=12", "--k", "2",
            "--reps", "4", "--seed", "5", "--format", "json",
        )
        doc = json.loads(out)
        num, den = map(int, doc["summary"]["mean_alg2_over_alpha"].split("/"))
        assert Fraction(num, den) <= 1

    def test_fixed_family_template(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--family", "j:6", "--k", "1", "--reps", "2"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(
            "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        )))
        assert rows[1][1:4] == ["6", "12", "1"] and rows[1][8] == rows[2][8]

    def test_missing_seed_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--family", "gnm:n=10,m=5", "--k", "0", "--reps", "2"
        )
        assert code == 2 and "seed" in err

    def test_huge_k(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--family", "gnm:n=8,m=12", "--k", str(10**20), "--seed", "2",
            "--format", "json",
        )
        assert code == 0
        assert [row[9] for row in json.loads(out)["rows"]] == [8]

    @pytest.mark.parametrize("command", ["bench", "exact"])
    def test_negative_limit_refused(self, capsys, command):
        # bench leaves the cap rule to alpha_k_exact, so both commands
        # refuse a negative limit the same way.
        code, out, err = run_cli(capsys, command, "--family", "j:6", "--k", "1", "--limit", "-1")
        assert (code, out, err) == (2, "", "error: limit must be nonnegative, got -1\n")


class TestErrors:
    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--family", "nope:3", "--k", "1")
        assert code == 2 and "unknown family" in err

    def test_parameter_given_twice(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--family", "j:4,n=6")
        assert (code, out, err) == (2, "", "error: family 'j' gets parameter 'n' twice\n")

    def test_missing_source(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--k", "1")
        assert code == 2

    def test_both_sources(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("2 1\n0 1\n")
        code, _, err = run_cli(
            capsys, "bound", "--file", str(f), "--family", "j:4", "--k", "0"
        )
        assert code == 2

    def test_parse_error_carries_line_number(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3 1\n0 x\n")
        code, _, err = run_cli(capsys, "bound", "--file", str(f), "--k", "0")
        assert code == 2 and "line 2" in err

    def test_dimacs_edge_count_mismatch(self, capsys, tmp_path):
        f = tmp_path / "bad.col"
        f.write_text("p edge 3 5\ne 1 2\ne 1 2\n")
        code, _, err = run_cli(capsys, "bound", "--file", str(f), "--k", "0")
        assert code == 2 and "announced 5 edges" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--file", "/nonexistent", "--k", "0")
        assert code == 2


class TestExitContract:
    def test_gen_without_family(self, capsys):
        code, out, err = run_cli(capsys, "gen")
        assert code == 2 and out == ""
        assert err == "error: a graph source is required (--file or --family)\n"

    @pytest.mark.parametrize("exc", [MemoryError])
    def test_deep_search_names_limit(self, capsys, monkeypatch, exc):
        def boom(*args, **kwargs):
            raise exc("too deep")

        monkeypatch.setattr(oracle, "alpha_k_exact", boom)
        code, out, err = run_cli(
            capsys, "exact", "--family", "complete:5", "--k", "0", "--limit", "2000"
        )
        assert code == 2 and out == ""
        assert err == ("error: the search ran out of memory (MemoryError);"
                       " use a smaller graph or a lower --limit\n")

    @pytest.mark.parametrize("argv", [["bound", "--k", "1"], ["verify", "--k", "1", "--set", "s"]])
    def test_out_of_memory_without_search_names_no_limit(self, capsys, monkeypatch, argv):
        def boom(path):
            raise MemoryError

        monkeypatch.setattr(formats, "load_graph", boom)
        code, out, err = run_cli(capsys, *argv, "--file", "g.txt")
        assert code == 2 and out == ""
        assert "MemoryError" in err and "--limit" not in err

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--family", "j:4", "--k", "1", "--set", "{set}"],
         "set file {set} must contain integers"),
        (["bench", "--family", "j:4", "--k", "1", "--reps", "0"], "reps must be at least 1, got 0"),
    ], ids=["verify-non-integer-set", "bench-no-reps"])
    def test_bad_option_value_exits_2(self, capsys, tmp_path, argv, message):
        set_file = tmp_path / "s.txt"
        set_file.write_text("0 x\n")
        code, out, err = run_cli(capsys, *[a.format(set=set_file) for a in argv])
        assert (code, out, err) == (2, "", f"error: {message.format(set=set_file)}\n")

    def test_chi_with_out_exits_2(self, capsys, tmp_path):
        out_file = tmp_path / "chi.set"
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--chi", "--family", "j:6", "--k", "1", "--out", str(out_file)])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "kindep exact: error: argument --out: not allowed with argument --chi")
        assert not out_file.exists()

    def test_gnm_past_pair_limit_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--family", "gnm:n=6074001001,m=1,seed=1")
        assert (code, out) == (2, "")
        assert err == ("error: n=6074001001 has more than 2**64 vertex pairs,"
                       " past random_gnm's limit\n")

    def test_deep_clique_search_exits_0(self, capsys):
        # Far deeper than the interpreter's recursion limit allows a recursive search.
        code, out, err = run_cli(
            capsys, "exact", "--family", "complete:1200", "--k", "0", "--limit", "2000"
        )
        assert (code, out, err) == (0, "1\n", "")

    def test_deep_chi_search_exits_0(self, capsys):
        code, out, err = run_cli(
            capsys, "exact", "--chi", "--family", "complete:1200", "--k", "0", "--limit", "2000"
        )
        assert (code, out, err) == (0, "1200\n", "")

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_alg1_on_empty_graph_passes(self, capsys, tmp_path, k):
        f = tmp_path / "empty.txt"
        f.write_text("0 0\n")
        code, out, _ = run_cli(capsys, "run", "--file", str(f), "--k", str(k), "--algo", "alg1")
        assert code == 0
        assert out == f"algo=alg1 k={k} size=0 guarantee=0/1 need>=0 verify=PASS\n"

    def test_failed_certificate_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "verify_k_independent", lambda *args: False)
        code, out, err = run_cli(capsys, "exact", "--family", "j:6", "--k", "1")
        assert code == 3 and out == ""
        assert err.startswith("error: certificate check failed:")

    def test_failed_certificate_exits_3_under_optimize(self):
        # Certificates are not asserts, so `python -O` keeps them.
        script = (
            "import sys, kindep.oracle as o; from kindep.cli import main; "
            "o.verify_k_independent = lambda *a: False; "
            "sys.exit(main(['exact', '--family', 'j:6', '--k', '1']))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 3 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: certificate check failed:")
