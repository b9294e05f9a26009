import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fanramsey import Graph, TwoColoring, cli, fans, find_fan, read_graph, write_graph
from fanramsey.cli import main


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestConstruct:
    def test_star_fan_payload(self, capsys):
        code, data = run_json(capsys, ["construct", "star-fan",
                                       "--m", "10", "--n", "5"])
        assert code == 0
        assert data["params"]["a"] == 7
        assert data["params"]["b"] == 2
        assert data["params"]["sigma"] == 3
        assert data["params"]["N"] == 18
        assert data["bound_implied"] == "R(K_{1,10}, F_5) >= 19"
        assert len(data["red_edges"]) > 0

    def test_special_payload(self, capsys):
        code, data = run_json(capsys, ["construct", "star-fan-special",
                                       "--n", "5"])
        assert code == 0
        assert data["params"]["m"] == 10 and data["params"]["N"] == 18

    def test_chromatic_payload(self, capsys):
        code, data = run_json(capsys, ["construct", "chromatic", "--n", "2"])
        assert code == 0
        assert data["N"] == 8
        assert data["bound_implied"] == "R(F_2) >= 9"

    def test_turan_payload(self, capsys):
        code, data = run_json(capsys, ["construct", "turan",
                                       "--n", "20", "--k", "3"])
        assert code == 0
        assert data["edges"] == 102
        assert len(data["edge_list"]) == 102

    def test_turan_out_file(self, capsys, tmp_path):
        path = tmp_path / "t.el"
        code = main(["construct", "turan", "--n", "12", "--k", "3",
                     "--out", str(path)])
        assert code == 0
        g = read_graph(path)
        assert g.n == 12 and find_fan(g, 3) is None

    def test_degenerate_range_exits_2(self, capsys):
        assert main(["construct", "star-fan", "--m", "4", "--n", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_m_exits_2(self, capsys):
        assert main(["construct", "star-fan", "--n", "5"]) == 2

    def test_flag_the_kind_ignores_exits_2(self, capsys):
        assert main(["construct", "chromatic", "--n", "2", "--m", "5"]) == 2
        assert capsys.readouterr().out == ""

    def test_text_output(self, capsys):
        code = main(["construct", "star-fan", "--m", "10", "--n", "5",
                     "--out", "/dev/null"])
        assert code == 0
        out = capsys.readouterr().out
        assert "a=7 b=2 sigma=3" in out
        assert "R(K_{1,10}, F_5) >= 19" in out


class TestVerify:
    @pytest.fixture()
    def witness_path(self, tmp_path, capsys):
        path = tmp_path / "w.el"
        assert main(["construct", "star-fan", "--m", "10", "--n", "5",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        return str(path)

    def test_star_fan_holds(self, capsys, witness_path, tmp_path):
        code, data = run_json(capsys, ["verify", witness_path,
                                       "--m", "10", "--n", "5"])
        assert code == 0
        assert data["bound_implied"] == "R(K_{1,10}, F_5) >= 19"
        assert all(c["holds"] for c in data["claims"])

    def test_failing_claims_exit_1(self, capsys, witness_path):
        code, data = run_json(capsys, ["verify", witness_path,
                                       "--m", "2", "--n", "5"])
        assert code == 1
        assert data["bound_implied"] is None

    def test_fan_fan_mode(self, capsys, tmp_path):
        path = tmp_path / "c.el"
        main(["construct", "chromatic", "--n", "2", "--out", str(path)])
        capsys.readouterr()
        code, data = run_json(capsys, ["verify", str(path), "--n", "2"])
        assert code == 0
        assert data["kind"] == "fan-fan"

    def test_missing_file_exits_3(self, capsys):
        assert main(["verify", "/nonexistent/file.el", "--n", "2"]) == 3

    def test_malformed_file_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("1 2\nbroken line here\n")
        assert main(["verify", str(bad), "--n", "2"]) == 3

    def test_non_ascii_file_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_bytes(b"# n=3\n0 1\n1 \xff2\n")
        assert main(["verify", str(bad), "--n", "2"]) == 3
        assert "0xff at byte offset 12" in capsys.readouterr().err


class TestDecompose:
    def test_path_three(self, capsys, tmp_path):
        path = tmp_path / "p3.el"
        write_graph(Graph(3, [(0, 1), (1, 2)]), path)
        code, data = run_json(capsys, ["decompose", str(path)])
        assert code == 0
        assert data == {"A": [1], "C": [], "D": [[0], [2]],
                        "p": 2, "deficiency": 1, "nu": 1}

    def test_text_lines(self, capsys, tmp_path):
        path = tmp_path / "p3.el"
        write_graph(Graph(3, [(0, 1), (1, 2)]), path)
        assert main(["decompose", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nu = 1, deficiency = 1, p = 2" in out
        assert "D_2 = [2]" in out

    def test_non_ascii_file_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_bytes(b"0 1\n\xff\n")
        assert main(["decompose", str(bad)]) == 3

    @pytest.mark.parametrize("text", ["1_0 2\n", "+2 3\n", "# n=1_0\n0 1\n"])
    def test_non_decimal_ids_exit_3(self, capsys, tmp_path, text):
        bad = tmp_path / "odd.el"
        bad.write_text(text)
        assert main(["decompose", str(bad)]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text", ["A_\nzzzz\n", "A_\nBw\n"])
    def test_graph6_extra_line_exits_3(self, capsys, tmp_path, text):
        bad = tmp_path / "two.g6"
        bad.write_text(text)
        assert main(["decompose", str(bad), "--format", "graph6"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad}:2: extra line after the graph6 string" in captured.err

    def test_graph6_decode_error_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.g6"
        bad.write_text("A_zzzz\n")
        assert main(["decompose", str(bad), "--format", "graph6"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad}:1: graph6 body has 5 bytes, n=2 needs 1" in captured.err

    def test_graph6_file_reads(self, capsys, tmp_path):
        path = tmp_path / "p3.g6"
        write_graph(Graph(3, [(0, 1), (1, 2)]), path, "graph6")
        code, data = run_json(capsys, ["decompose", str(path), "--format", "graph6"])
        assert code == 0
        assert data["nu"] == 1


class TestRealize:
    def test_pair_mode(self, capsys):
        code, data = run_json(capsys, ["realize", "pair", "--x", "1,1", "--y", "2"])
        assert code == 0
        assert data["bigraphic"] is True
        assert data["edges"] == [[0, 2], [1, 2]]
        assert data["left"] == [0, 1] and data["right"] == [2]

    def test_pair_mode_rejection(self, capsys):
        code, data = run_json(capsys, ["realize", "pair", "--x", "2,2", "--y", "4"])
        assert code == 1
        assert data["bigraphic"] is False
        assert "dominance" in data["reason"]

    def test_interval_mode(self, capsys):
        code, data = run_json(capsys, ["realize", "interval", "--a", "7", "--b", "2",
                                       "--c", "2", "--d", "4", "--sigma", "3"])
        assert code == 0
        assert sorted(data["degrees"][:7]) == [1, 1, 1, 1, 1, 1, 2]
        assert data["degrees"][7:] == [4, 4]

    def test_interval_window_violation_exits_2(self, capsys):
        assert main(["realize", "interval", "--a", "2", "--b", "2", "--c", "0",
                     "--d", "4", "--sigma", "2"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["pair", "--x", "1"], "the following arguments are required: --y"),
        (["interval", "--a", "1", "--b", "1", "--c", "0", "--d", "0"],
         "the following arguments are required: --sigma"),
    ], ids=["pair", "interval"])
    def test_missing_flag_exits_2(self, capsys, argv, message):
        assert main(["realize"] + argv) == 2
        assert message in capsys.readouterr().err

    def test_mode_confusion_exits_2(self, capsys):
        assert main(["realize", "pair", "--x", "1", "--y", "1", "--a", "1"]) == 2
        assert "unrecognized arguments: --a 1" in capsys.readouterr().err
        assert main(["realize", "interval", "--x", "1", "--a", "1", "--b", "1",
                     "--c", "0", "--d", "0", "--sigma", "0"]) == 2
        assert "unrecognized arguments: --x 1" in capsys.readouterr().err
        assert main(["realize"]) == 2
        # the forms that chose a mode by which flags were present
        assert main(["realize", "--x", "1", "--y", "1"]) == 2
        assert main(["realize", "--a", "1", "--b", "1", "--c", "0",
                     "--d", "0", "--sigma", "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "g.el"
        code = main(["realize", "pair", "--x", "1,1", "--y", "2", "--out", str(path)])
        assert code == 0
        assert read_graph(path).edge_count() == 2


class TestFanFind:
    def test_file_mode_found(self, capsys, tmp_path):
        path = tmp_path / "g.el"
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
        write_graph(g, path)
        code, data = run_json(capsys, ["fan-find", str(path), "--k", "2"])
        assert code == 0
        assert data["found"] is True
        assert data["witness"]["center"] == 0

    def test_file_mode_absent(self, capsys, tmp_path):
        path = tmp_path / "g.el"
        write_graph(Graph(4, [(0, 1), (1, 2), (2, 3)]), path)
        code, data = run_json(capsys, ["fan-find", str(path), "--k", "1"])
        assert code == 0
        assert data == {"found": False, "k": 1}

    def test_file_mode_takes_format(self, capsys, tmp_path):
        # --format defaults to edgelist, as on every reader
        path = tmp_path / "g.g6"
        write_graph(Graph(3, [(0, 1), (1, 2), (0, 2)]), path, "graph6")
        code, data = run_json(capsys, ["fan-find", str(path), "--k", "1",
                                       "--format", "graph6"])
        assert code == 0 and data["found"] is True
        assert main(["fan-find", str(path), "--k", "1"]) == 3

    def test_header_only_file_builds_no_masks(self, capsys, tmp_path, monkeypatch):
        # an edgeless graph of 100,000 vertices: no center can hold F_1, so
        # fan-find and verify's red fan claim never build Graph.bits, whose
        # table of n shifted bits alone would take about n^2/16 bytes
        path = tmp_path / "header.el"
        path.write_text("# n=100000\n")

        def no_bits(g):
            raise AssertionError("Graph.bits built")

        monkeypatch.setattr(Graph, "bits", property(no_bits))
        assert main(["fan-find", str(path), "--k", "1"]) == 0
        assert capsys.readouterr().out == "no F_1\n"
        assert main(["verify", str(path), "--m", "2", "--n", "1"]) == 1
        assert "  no red F_1: HOLDS\n" in capsys.readouterr().out

    def test_file_mode_needs_k(self, capsys, tmp_path):
        path = tmp_path / "g.el"
        write_graph(Graph(3, []), path)
        assert main(["fan-find", str(path)]) == 2

    def test_trial_mode_all_found(self, capsys):
        code, data = run_json(capsys, ["fan-trials", "--n", "2",
                                       "--trials", "25", "--seed", "7"])
        assert code == 0
        assert data["found"] == data["trials"] == 25
        assert data["seed"] == 7

    def test_trial_mode_deterministic(self, capsys):
        argv = ["fan-trials", "--n", "3", "--trials", "10", "--seed", "41"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        assert first == second

    def test_trial_mode_default_seed(self, capsys):
        code, data = run_json(capsys, ["fan-trials", "--n", "2", "--trials", "5"])
        assert code == 0
        assert data["seed"] == 2024

    def test_trial_mode_needs_args(self, capsys):
        assert main(["fan-trials", "--n", "2"]) == 2
        assert main(["fan-trials", "--trials", "2"]) == 2
        # the form that chose trial mode by the absence of a file
        assert main(["fan-find", "--n", "2", "--trials", "1"]) == 2

    def test_trials_must_be_positive(self, capsys):
        assert main(["fan-trials", "--n", "2", "--trials", "-3"]) == 2
        assert main(["fan-trials", "--n", "2", "--trials", "0"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, flag", [
        (["fan-trials", "--n", "-1", "--trials", "1"], "--n"),
        (["fan-find", "missing.el", "--k", "0"], "--k"),
    ])
    def test_fan_size_must_be_positive(self, capsys, argv, flag):
        # argparse names the flag before a Graph of order 3n + 1 is built
        # or the file is opened
        assert main(argv) == 2
        assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["fan-trials", "--n", "2", "--trials", "1", "--k", "5"], "--k"),
        (["fan-find", "FILE", "--k", "1", "--n", "3", "--trials", "2"], "--n"),
        (["fan-find", "FILE", "--k", "1", "--trials", "2"], "--trials"),
        (["fan-find", "FILE", "--k", "1", "--seed", "7"], "--seed"),
        (["fan-trials", "--n", "2", "--trials", "1", "--format", "graph6"], "--format"),
    ], ids=["k-in-trial-mode", "n-on-a-file", "trials-on-a-file", "seed-on-a-file",
            "format-in-trial-mode"])
    def test_each_mode_rejects_the_other_modes_flags(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "g.el"
        write_graph(Graph(3, [(0, 1)]), path)
        argv = [str(path) if a == "FILE" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err

    def test_trial_mode_lemma_failure_exits_1(self, capsys, monkeypatch):
        star = TwoColoring(7, Graph(7, [(0, v) for v in range(1, 7)]))
        monkeypatch.setattr(cli, "conditioned_coloring", lambda rng, n: star)
        monkeypatch.setattr(fans, "find_fan", lambda g, k: None)
        assert main(["fan-trials", "--n", "2", "--trials", "1"]) == 1
        assert "lemma failed at vertex 0" in capsys.readouterr().err


class TestSearch:
    def test_known_value(self, capsys):
        code, data = run_json(capsys, ["search", "star", "2", "fan", "2",
                                       "--cap", "9"])
        assert code == 0
        assert data["value"] == 5
        assert data["statement"] == "R(K_{1,2}, F_2) = 5"
        # K_4 with a blue perfect matching: the red C_4 holds no F_2
        assert data["witness"] == [[0, 1], [2, 3]]

    def test_cap_reported(self, capsys):
        code, data = run_json(capsys, ["search", "fan", "2", "fan", "2",
                                       "--cap", "8"])
        assert code == 0
        assert data["value"] is None and data["lower"] == 9

    def test_over_cap_exits_2(self, capsys):
        assert main(["search", "fan", "2", "fan", "2", "--cap", "9"]) == 2

    def test_workers_flag_is_a_usage_error(self, capsys):
        # the search runs in one process and takes no --workers
        argv = ["search", "star", "6", "star", "4", "--cap", "9"]
        assert main(argv + ["--workers", "2"]) == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


class TestFormula:
    def test_star_fan(self, capsys):
        code, data = run_json(capsys, ["formula", "star-fan",
                                       "--m", "10", "--n", "5"])
        assert code == 0
        assert data["regime"] == "n < m < n(n-1)"
        assert data["lower"] == pytest.approx(15.6602540378)

    def test_fan_gate(self, capsys):
        code, data = run_json(capsys, ["formula", "fan",
                                       "--n", "10", "--epsilon", "1.0"])
        assert code == 0
        assert data["upper_valid"] is False
        assert "384" in data["notes"][0]

    def test_dirac(self, capsys):
        code, data = run_json(capsys, ["formula", "dirac",
                                       "--n", "100", "--k", "5"])
        assert code == 0
        assert data["case"] == 1 and data["threshold"] == 50.5

    def test_dirac_text_flags_theta(self, capsys):
        assert main(["formula", "dirac", "--n", "100", "--k", "20"]) == 0
        assert "additive constant" in capsys.readouterr().out

    def test_missing_args_exit_2(self, capsys):
        assert main(["formula", "star-fan", "--n", "5"]) == 2
        assert main(["formula", "fan", "--n", "5"]) == 2
        assert main(["formula", "dirac", "--n", "5"]) == 2

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_fan_non_finite_epsilon_exits_2(self, capsys, epsilon):
        assert main(["formula", "fan", "--n", "10", "--epsilon", epsilon]) == 2
        assert capsys.readouterr().out == ""

    def test_dirac_range_exits_2(self, capsys):
        assert main(["formula", "dirac", "--n", "10", "--k", "5"]) == 2

    def test_fan_underflowed_epsilon_reports_gate_not_met(self, capsys):
        # 1e-300 squared underflows to 0; the gate is past every n
        code, data = run_json(capsys, ["formula", "fan",
                                       "--n", "5", "--epsilon", "1e-300"])
        assert code == 0
        assert data["upper_valid"] is False
        assert "NOT satisfied" in data["notes"][0]

    # each of these exited 1 with an OverflowError traceback before
    @pytest.mark.parametrize("argv", [
        ["star-fan", "--m", str(10**400), "--n", "3"],
        ["dirac", "--n", str(10**400), "--k", "2"],
        ["fan", "--n", str(10**400), "--epsilon", "1"],
    ], ids=["star-fan", "dirac", "fan"])
    def test_beyond_the_float_range_exits_2(self, capsys, argv):
        assert main(["formula", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "float range" in captured.err


def test_console_script_installed():
    exe = shutil.which("fanramsey")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "formula", "star-fan", "--m", "1", "--n", "2",
                           "--json"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lower"] == 5.0


# int() takes each of these tokens, and graph files reject them; an empty
# degree between commas was once dropped, so '1,,1' read as [1, 1]
@pytest.mark.parametrize("argv, flag, token", [
    (["construct", "turan", "--n", "4_0", "--k", "1_0"], "--n", "4_0"),
    (["fan-trials", "--n", "+2", "--trials", "1"], "--n", "+2"),
    (["realize", "pair", "--x", "1_0,+2", "--y", "6,6"], "--x", "1_0"),
    (["realize", "pair", "--x", "1,,1", "--y", "2"], "--x", ""),
    (["realize", "pair", "--x", "1", "--y", "1,"], "--y", ""),
], ids=["plain", "positive", "degree-list", "empty-degree", "trailing-comma"])
def test_integers_are_ascii_decimal(capsys, argv, flag, token):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be a decimal integer, got {token!r}" in captured.err


def test_main_returns_status_for_every_argv(capsys):
    assert main(["--help"]) == 0
    assert main(["nosuch"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("lines, argv, status, out", [
    # a triangle among 258,047 vertices: Graph.bits builds each mask
    # from its own row, with no table of n shifted bits
    (["0 1", "0 2", "1 2"], ["fan-find", "--k", "1"], 0, "F_1 centered at 0"),
    # the blue masks of the header alone need about 8 GB: out of memory
    # is exit 3 with one error line, not a traceback and exit 1
    ([], ["verify", "--n", "1"], 3, ""),
], ids=["fan-find-triangle", "verify-header"])
def test_order_limit_file_under_a_memory_limit(tmp_path, lines, argv, status, out):
    path = tmp_path / "big.el"
    path.write_text("".join(f"{line}\n" for line in ["# n=258047", *lines]))
    src = Path(__file__).resolve().parents[1] / "src"
    # a 512 MB address-space limit, set in the child alone
    limit = ("import resource, sys; from fanramsey.cli import main; "
             "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29)); "
             "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", limit, argv[0], str(path), *argv[1:]],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == status, proc.stderr
    assert out in proc.stdout
    assert "Traceback" not in proc.stderr
    if status:
        assert proc.stderr == "error: out of memory\n"


@pytest.mark.parametrize("lines, first", [
    ([], "nu = 0, deficiency = 258047, p = 258047"),
    (["0 1", "0 2", "1 2"], "nu = 1, deficiency = 258045, p = 258045"),
], ids=["header", "triangle"])
def test_decompose_order_limit_file_under_a_memory_limit(tmp_path, lines, first):
    # edmonds_gallai hands each G - v the first maximum matching: a vertex
    # it misses costs no search and no copy, so the header alone decomposes
    # in about a second, where one O(n) matching per vertex took hours
    path = tmp_path / "big.el"
    path.write_text("".join(f"{line}\n" for line in ["# n=258047", *lines]))
    src = Path(__file__).resolve().parents[1] / "src"
    # a 2 GB address-space limit, set in the child alone
    limit = ("import resource, sys; from fanramsey.cli import main; "
             "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
             "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", limit, "decompose", str(path)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == first
    assert proc.stderr == ""


def test_closed_output_exits_3_without_an_error_line(tmp_path):
    # about 300 KB of output, more than a pipe holds, so the child is still
    # writing when the reader closes the pipe after one line
    path = tmp_path / "header.el"
    path.write_text("# n=20000\n")
    src = Path(__file__).resolve().parents[1] / "src"
    with subprocess.Popen([sys.executable, "-m", "fanramsey.cli", "decompose", str(path)],
                          env=dict(os.environ, PYTHONPATH=str(src)), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == "nu = 0, deficiency = 20000, p = 20000\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 3
    assert err == ""


def test_module_entry_point_exit_codes(capsys, tmp_path):
    witness = tmp_path / "w.el"
    assert main(["construct", "star-fan", "--m", "10", "--n", "5",
                 "--out", str(witness)]) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cases = [(["formula", "star-fan", "--m", "1", "--n", "2"], 0),
             (["verify", str(witness), "--m", "2", "--n", "5"], 1),
             (["nosuch"], 2),
             (["construct", "star-fan", "--n", "5"], 2),
             (["verify", str(tmp_path / "missing.el"), "--n", "2"], 3)]
    for argv, status in cases:
        proc = subprocess.run([sys.executable, "-m", "fanramsey.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == status, (argv, proc.stderr)
