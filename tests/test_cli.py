"""CLI surface: subcommands, exit codes, output formats, env seed."""

import csv
import hashlib
import io
import json
from dataclasses import fields

import pytest

from qpebble import cli, harness, parse_graph, run_experiment
from qpebble.cli import main
from qpebble.agent import classical_trajectory
from qpebble.harness import SummaryStats, config_from_dict, parse_graph_source, parse_strategy


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["bound", "--D", "10", "--delta", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["required_n"] == 53
    assert 0.99 < doc["success_lower"] < 1.0


def test_bound_with_explicit_n(capsys):
    code, out, _ = run_cli(capsys, ["bound", "--D", "10", "--delta", "4", "--n", "20"])
    assert code == 0
    assert json.loads(out)["per_node_failure"] > 0.01


def test_bound_rounds_an_odd_delta_like_a_run(tmp_path, capsys):
    # D=2 route 0-1-2; node 1 has degree 5, so runs use the delta=6 family
    graph = tmp_path / "g.txt"
    graph.write_text("6 5\n0 2\n0 0 1 0\n1 1 2 0\n1 2 3 0\n1 3 4 0\n1 4 5 0\n")
    argv = ["simulate", "--gen", str(graph), "--trials", "2", "--out", str(tmp_path / "run.csv")]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    run_bound = json.loads(out)["bound"]
    code, out, _ = run_cli(capsys, ["bound", "--D", "2", "--delta", "5"])
    assert code == 0
    assert json.loads(out) == run_bound
    assert run_bound["required_n"] == 103


def test_gen_graph_roundtrips(tmp_path, capsys):
    target = tmp_path / "g.txt"
    code, out, _ = run_cli(
        capsys, ["gen-graph", "--gen", "path:D=4,delta=4", "--seed", "2", "--out", str(target)]
    )
    assert code == 0
    g = parse_graph(target.read_text())
    assert g.node_count == 4 + 1 + 3 * 2
    # stdout default, deterministic in the seed
    code, out1, _ = run_cli(capsys, ["gen-graph", "--gen", "gpqr:p=1,q=1,r=1", "--seed", "5"])
    code2, out2, _ = run_cli(capsys, ["gen-graph", "--gen", "gpqr:p=1,q=1,r=1", "--seed", "9"])
    assert code == code2 == 0
    assert out1 == out2  # gadgets ignore the seed: fully parameterized


def test_simulate_writes_records_and_summary(tmp_path, capsys):
    out_csv = tmp_path / "run.csv"
    code, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--gen", "path:D=2,delta=4",
            "--trials", "10",
            "--seed", "3",
            "--out", str(out_csv),
        ],
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 10
    assert summary["bound"]["required_n"] == 43
    lines = out_csv.read_text().split("\n")
    assert lines[0] == "trial,success,steps,measurements,failure_kind"
    assert len(lines) == 12 and lines[-1] == ""


def test_simulate_json_records(tmp_path, capsys):
    out_json = tmp_path / "run.json"
    code, _, _ = run_cli(
        capsys,
        [
            "simulate",
            "--gen", "path:D=2,delta=4",
            "--trials", "4",
            "--seed", "3",
            "--out", str(out_json),
            "--format", "json",
        ],
    )
    assert code == 0
    rows = json.loads(out_json.read_text())
    assert [r["trial"] for r in rows] == [0, 1, 2, 3]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_out_dash_keeps_stdout_to_the_records(fmt, tmp_path, capsys):
    base = ["simulate", "--gen", "path:D=2,delta=4", "--trials", "5", "--seed", "3", "--format", fmt]
    code, summary, _ = run_cli(capsys, base + ["--out", str(tmp_path / "run")])
    assert code == 0
    code, out, err = run_cli(capsys, base + ["--out", "-"])
    assert code == 0
    assert out == (tmp_path / "run").read_text()
    if fmt == "csv":
        assert len(list(csv.reader(io.StringIO(out)))) == 5 + 1
    else:
        assert [r["trial"] for r in json.loads(out)] == [0, 1, 2, 3, 4]
    assert err == summary


def test_a_bad_out_path_fails_before_any_trial(tmp_path, capsys, monkeypatch):
    """simulate opens --out before its run, so a path it cannot write ends the command with no trial run."""
    calls = []
    run_trial = harness.run_trial
    monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args) or run_trial(*args))
    target = tmp_path / "missing" / "x.csv"
    argv = ["simulate", "--gen", "path:D=3,delta=4", "--trials", "3", "--out", str(target)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"qpebble: error: [Errno 2] No such file or directory: '{target}'\n"
    assert calls == []
    assert run_cli(capsys, argv[:-1] + [str(tmp_path / "x.csv")])[0] == 0
    assert len(calls) == 3


def test_simulate_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "graph_source": "path:D=2,delta=4",
                "strategy": "fixed:5",
                "trials": 5,
                "seed": 1,
            }
        )
    )
    code, out, _ = run_cli(capsys, ["simulate", "--config", str(cfg), "--trials", "8"])
    assert code == 0
    assert json.loads(out)["trials"] == 8


FILE_CONFIG = {
    "graph_source": "path:D=2,delta=4",
    "scheme": "general",
    "strategy": "fixed:5",
    "trials": 2,
    "seed": 1,
    "step_budget": 2,
    "eps": 0.01,
}


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--gen", "path:D=3,delta=4", "graph_source"),
        ("--scheme", "bitsign4", "scheme"),
        ("--strategy", "adaptive", "strategy"),
        ("--trials", 3, "trials"),
        ("--seed", 9, "seed"),
        ("--step-budget", 4, "step_budget"),
        ("--eps", 0.05, "eps"),
    ],
)
def test_each_flag_overrides_its_config_file_key(flag, value, key, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FILE_CONFIG))
    seen = []

    def recording_run(config, workers):
        seen.append(config)
        return run_experiment(config, workers=workers)

    monkeypatch.setattr(cli, "run_experiment", recording_run)
    code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg), flag, str(value)])
    assert code == 0, err
    assert seen == [config_from_dict({**FILE_CONFIG, key: value})]
    assert seen[0] != config_from_dict(FILE_CONFIG)


def test_seed_flag_skips_an_unreadable_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("QPEBBLE_SEED", "abc")
    base = ["simulate", "--gen", "path:D=2,delta=4", "--strategy", "fixed:2", "--trials", "3"]
    assert run_cli(capsys, base + ["--seed", "1"])[0] == 0
    code, _, err = run_cli(capsys, base)
    assert code == 2
    assert "qpebble: error: QPEBBLE_SEED must be an integer, got 'abc'" in err


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    base = ["simulate", "--gen", "path:D=2,delta=4", "--strategy", "fixed:2", "--trials", "30"]
    monkeypatch.setenv("QPEBBLE_SEED", "7")
    assert run_cli(capsys, base + ["--out", str(a)])[0] == 0
    monkeypatch.delenv("QPEBBLE_SEED")
    assert run_cli(capsys, base + ["--seed", "7", "--out", str(b)])[0] == 0
    assert run_cli(capsys, base + ["--seed", "8", "--out", str(c)])[0] == 0
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def test_sweep_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "sweep",
            "--gen", "path:D=2,delta=4",
            "--strategy", "fixed:auto",
            "--axis", "n",
            "--values", "2,8",
            "--trials", "25",
            "--seed", "4",
        ],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("axis,value,")
    assert [ln.split(",")[1] for ln in lines[1:]] == ["2", "8"]


def test_compare_fullpath_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["compare-fullpath", "--D", "4", "--delta", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["full_path_total"] >= doc["per_node_total"]
    assert doc["full_path_at_least_per_node"] is True


def test_compare_fullpath_rounds_an_odd_delta_like_a_run(capsys):
    # a max degree of 5 gets the delta=6 family, as in bound and in a run
    code, out, _ = run_cli(capsys, ["compare-fullpath", "--D", "2", "--delta", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["max_degree"] == 6
    assert doc["required_n"] == 103
    assert run_cli(capsys, ["compare-fullpath", "--D", "2", "--delta", "6"])[1] == out


def test_impossible_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["impossible"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_defeated"] is True
    assert doc["tables_defeated"] == 64
    assert "witnesses" not in doc
    code, out, _ = run_cli(capsys, ["impossible", "--witnesses"])
    assert code == 0
    witnesses = json.loads(out)["witnesses"]
    assert len(witnesses) == 64
    # each witness is a valid spec pair whose table misses the treasure under every placement
    for witness in witnesses:
        table = parse_strategy("table:" + witness["table"]).table
        g = parse_graph_source("gpqr:" + witness["gadget"], 0)
        for bits in range(1 << g.node_count):
            pebbled = frozenset(v for v in range(g.node_count) if bits >> v & 1)
            assert classical_trajectory(g, pebbled, table)[-1] != g.treasure, witness


@pytest.mark.parametrize("n", [9223372036854775808, 5000000000000000000])
def test_a_fixed_n_whose_stream_offsets_pass_int64_exits_2(n, capsys):
    """budget * n * F = 3 * n * 2 passes 2**63 - 1, the last stream offset: the run names n."""
    argv = ["simulate", "--gen", "path:D=3,delta=4", "--strategy", f"fixed:{n}", "--trials", "1"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"qpebble: error: FixedN.n {n} too large: 3 rounds read {6 * n} draws, over 2**63-1\n"


@pytest.mark.parametrize("delta", ["100000000000", "100000000000000000000", str(2**62)])
def test_a_one_edge_path_runs_at_any_delta(delta, capsys):
    """path:D=1 pads no node, so any even delta gives the records of delta 2:
    nothing is sized by delta (these deltas once ran out of memory or past
    numpy's largest dimension)."""
    argv = ["simulate", "--gen", f"path:D=1,delta={delta}", "--trials", "2", "--out", "-"]
    code, out, _ = run_cli(capsys, argv)
    assert (code, out) == run_cli(capsys, argv[:2] + ["path:D=1,delta=2"] + argv[3:])[:2]
    assert out == "trial,success,steps,measurements,failure_kind\n0,1,1,8,none\n1,1,1,8,none\n" and code == 0


@pytest.mark.parametrize("text", ["[" * 100_000, '{"trials": ' * 16_000 + "1" + "}" * 16_000],
                         ids=["open_brackets", "nested_objects"])
def test_config_json_nested_too_deeply_exits_2_naming_the_file(text, capsys, tmp_path):
    """JSON nested past the interpreter's recursion limit, about 10**5 bytes of
    it, is a config error that names the file, not a traceback."""
    cfg = tmp_path / "deep.json"
    cfg.write_text(text)
    for command in (["simulate"], ["sweep", "--axis", "n", "--values", "3"]):
        code, out, err = run_cli(capsys, [*command, "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == f"qpebble: error: config file {str(cfg)!r} holds JSON nested too deeply\n"


def test_config_json_that_does_not_parse_exits_2_naming_the_file(capsys, tmp_path):
    cfg = tmp_path / "cut.json"
    cfg.write_text('{"graph_source": ')
    for command in (["simulate"], ["sweep", "--axis", "n", "--values", "3"]):
        code, out, err = run_cli(capsys, [*command, "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == f"qpebble: error: config file {str(cfg)!r} is not valid JSON: Expecting value: line 1 column 18 (char 17)\n"


def test_config_json_past_the_digit_limit_or_not_utf8_exits_2_with_its_message(capsys, tmp_path):
    """An integer past int()'s 4300-digit limit names the config file; a file that is not UTF-8 keeps the codec's
    message."""
    long_int, not_utf8 = tmp_path / "long.json", tmp_path / "latin1.json"
    long_int.write_text('{"trials": ' + "9" * 5000 + "}")
    not_utf8.write_bytes(b'{"graph_source": "\xff"}')
    for cfg, message in [
        (long_int, f"config file {str(long_int)!r} holds an integer of more than 4300 digits"),
        (not_utf8, "'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"),
    ]:
        code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
        assert (code, out, err) == (2, "", f"qpebble: error: {message}\n")


PAST_FLOAT = "1" + "0" * 400  # 401 digits
DELTA_ROUNDS_TO_ONE = "delta is too large: cos^2(pi / (2 delta)) rounds to 1, so no n meets the bound"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--D", "10", "--delta", "200000000"], DELTA_ROUNDS_TO_ONE),
        (["--D", "10", "--delta", PAST_FLOAT], DELTA_ROUNDS_TO_ONE),
        (["--D", PAST_FLOAT, "--delta", "4"], "dist is too large to convert to a float"),
    ],
    ids=["delta_2e8", "delta_401_digits", "D_401_digits"],
)
def test_bound_and_compare_fullpath_name_an_argument_no_float_bound_holds(argv, message, capsys):
    for command in ("bound", "compare-fullpath"):
        code, out, err = run_cli(capsys, [command, *argv])
        assert (code, out, err) == (2, "", f"qpebble: error: {message}\n")


@pytest.mark.parametrize("n", [PAST_FLOAT, "-" + PAST_FLOAT], ids=["401_digits", "minus_401_digits"])
def test_bound_names_an_n_past_float_range(n, capsys):
    code, out, err = run_cli(capsys, ["bound", "--D", "10", "--delta", "4", "--n", n])
    assert (code, out, err) == (2, "", "qpebble: error: n is too large to convert to a float\n")


def test_config_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["simulate", "--gen", "path:D=x,delta=4", "--trials", "2"])
    assert code == 2
    assert "qpebble: error: cannot read 'x' as an integer in graph source 'path:D=x,delta=4'" in err
    code, _, err = run_cli(capsys, ["simulate", "--gen", "path:D=3,delta=4", "--strategy", "fixed:abc"])
    assert code == 2
    assert "qpebble: error:" in err and "strategy 'fixed:abc'" in err
    for extra, named in [({"trials": [5]}, "'trials'"), ({"trails": 5}, "'trails'")]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph_source": "path:D=3,delta=4", **extra}))
        code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
        assert code == 2
        assert "qpebble: error:" in err and named in err
    code, _, err = run_cli(capsys, ["simulate", "--trials", "2"])
    assert code == 2
    assert "graph_source" in err
    bad = tmp_path / "bad.json"
    bad.write_text("[1,2,3]")
    code, _, err = run_cli(capsys, ["simulate", "--config", str(bad)])
    assert code == 2
    code, _, err = run_cli(capsys, ["simulate", "--gen", "missing_file.txt", "--trials", "2"])
    assert code == 2
    code, _, err = run_cli(capsys, ["simulate", "--gen", "path:D=3,delta=4", "--workers", "-3"])
    assert code == 2
    assert "qpebble: error: workers must be >= 1, got -3" in err
    code, _, err = run_cli(capsys, ["simulate", "--gen", "path:D=3,delta=4", "--strategy", "fixed:0"])
    assert code == 2
    assert "qpebble: error: FixedN.n must be >= 1, got 0" in err
    code, _, err = run_cli(capsys, ["sweep", "--gen", "path:D=3,delta=4", "--axis", "n", "--values", "5,x"])
    assert code == 2
    assert err == "qpebble: error: cannot read 'x' as an integer in --values '5,x'\n"
    code, _, err = run_cli(capsys, ["sweep", "--gen", "path:D=3,delta=4", "--axis", "n", "--values", "0"])
    assert code == 2
    assert "qpebble: error: FixedN.n must be >= 1, got 0" in err
    code, _, err = run_cli(capsys, ["sweep", "--gen", "path:delta=4", "--axis", "delta", "--values", "4"])
    assert code == 2
    assert err == "qpebble: error: path generator needs D and delta, missing 'D'\n"
    argv = ["simulate", "--gen", "path:D=10,delta=4", "--strategy", "adaptive", "--eps", "2", "--trials", "30000"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "qpebble: error: eps must be in (0, 1), got 2.0" in err
    for delta in ("0", "-3"):
        code, _, err = run_cli(capsys, ["bound", "--D", "3", "--delta", delta])
        assert code == 2
        assert "qpebble: error: delta must be >= " in err and f"got {delta}" in err


@pytest.mark.parametrize("degree", ["²", "1" * 5000], ids=["superscript_two", "5000_digits"])
def test_a_table_degree_that_is_no_int_names_the_strategy(degree, capsys):
    """A table key's degree passes str.isdigit but int() cannot read it: a
    digit that is no decimal digit, or more digits than int() reads."""
    spec = f"table:{degree}p=1"
    code, out, err = run_cli(capsys, ["simulate", "--gen", "path:D=3,delta=4", "--strategy", spec, "--trials", "1"])
    assert (code, out, err) == (2, "", f"qpebble: error: cannot read {degree!r} as an integer in strategy {spec!r}\n")


def test_a_strategy_spec_and_a_scheme_errors_name_their_text_and_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["simulate", "--gen", "path:D=3,delta=4", "--strategy", "qudit:5"])
    assert (code, out, err) == (2, "", "qpebble: error: strategy qudit takes no parameters, got 'qudit:5'\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph_source": "path:D=3,delta=4", "scheme": "bogus"}))
    code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err == "qpebble: error: config key 'scheme' must be one of ['general', 'bitsign4', 'qudit', 'full_path'], got 'bogus'\n"


def test_argparse_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen-graph"])  # --gen is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def sha256(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


SIM = ["simulate", "--trials", "12", "--seed", "5"]
QUDIT_10012 = ["simulate", "--gen", "path:D=10,delta=4", "--scheme", "qudit", "--strategy", "qudit", "--trials", "10012",
               "--seed", "5"]
ADAPTIVE_105 = ["simulate", "--gen", "path:D=100,delta=8", "--strategy", "adaptive", "--trials", "105", "--seed", "7"]

# SHA-256 of stdout, and of the --out file where there is one. They pin key
# order, indentation, the trailing newline and how inf is printed.
PINNED_OUTPUT = [
    (
        "simulate_fixed_auto",
        SIM + ["--gen", "path:D=3,delta=4", "--strategy", "fixed:auto", "--out", "{out}"],
        "7171223264cca0c848e37b8472034504049b096129e349c613f2d9aebd56bc55",
        "a6ea69da800606a3b47d4447ecaaed03f4455b9592df2972d1f14dd77039c905",
    ),
    (
        "simulate_adaptive",
        SIM + ["--gen", "path:D=3,delta=8", "--strategy", "adaptive", "--out", "{out}"],
        "1993aa0b07114e82058530096ed11d16c28cdd8d9615e86c1b61572c5b059368",
        "f307928fde8ec3f27729663713a02a9a92ed190a02989f19d807a449f0e70270",
    ),
    (
        "simulate_random",
        SIM + ["--gen", "path:D=3,delta=4", "--strategy", "random", "--step-budget", "30", "--out", "{out}"],
        "effd32815dde4d3b6934e65599711fe2a5d455bffb72cfb6a686c2a480b3705b",
        "38c7f4156ecdd853ddac4ff13fa30170c5df1ea245b0afe4514e430bab72937c",
    ),
    (
        "simulate_qudit",
        SIM + ["--gen", "path:D=3,delta=4", "--scheme", "qudit", "--strategy", "qudit", "--out", "{out}"],
        "397a26f5e7b31dc85287a540abfa288850c9508b47e5664e07fb2e436a3e17ab",
        "5f1069b78ea20a19a98c6a0f27d1b03c3bb0af5de1ad490125741b4fbf97756f",
    ),
    (
        "simulate_table_gpqr",
        SIM + ["--gen", "gpqr:p=1,q=2,r=0,swaps=010", "--strategy", "table:3p=1,3n=0,1p=0,1n=s", "--out", "{out}"],
        "4e188d849a6f201a11bcf5d7dbf27494d800bd5dedfd6addf5a475ab5223f1f2",
        "9eda22e325de07d597b86e570401021ce7fa9505287e77aedbc1ceb1245abe08",
    ),
    (
        "simulate_json_records",
        SIM + ["--gen", "path:D=2,delta=4", "--strategy", "fixed:3", "--format", "json", "--out", "{out}"],
        "abf11546bc5719fe6300a6a86343863909c190819eab71a6bc42087ab1453531",
        "92dcfe00868561e7d6594dd87f54f2e09f6f02372ddd3a13d49e21c5598759fe",
    ),
    # one run of 10012 equal rows, whose indices cross 999->1000 and 9999->10000, whole and in two chunks
    *(
        (
            f"simulate_qudit_10012_{fmt}_workers_{workers}",
            QUDIT_10012 + ["--workers", str(workers), "--format", fmt, "--out", "{out}"],
            "95f210447014e0c9b4940bf53a0506529ca76191fbd56e504c4646320001072d",
            digest,
        )
        for fmt, digest in [
            ("csv", "cffde251ec2ee8a3c7e9e70733bf5b440e70fca2caca58949901b4ba3985c5e9"),
            ("json", "905cbcae53c058337aa0cc03fc80be71eb833a429648061fbf396e92704c887f"),
        ]
        for workers in (1, 2)
    ),
    # 105 adaptive trials whose rows are all distinct: 105 runs of one
    (
        "simulate_adaptive_distinct_csv",
        ADAPTIVE_105 + ["--out", "{out}"],
        "1dfc54c7c5bc313123d6cb4748000ed664f6070263cba8c8d4d01e4bf933670b",
        "8a3e8efa34aee0b36f8f0647c37852e349e48845bd6762231dbc4674c0df23b2",
    ),
    (
        "simulate_adaptive_distinct_json",
        ADAPTIVE_105 + ["--format", "json", "--out", "{out}"],
        "1dfc54c7c5bc313123d6cb4748000ed664f6070263cba8c8d4d01e4bf933670b",
        "32c5022c7f859aa621eb376b88b6eb4fb4c3885a55acb76fd87c8c99b8bba948",
    ),
    (
        "sweep_csv",
        ["sweep", "--gen", "path:D=2,delta=4", "--axis", "n", "--values", "2,8", "--trials", "25", "--seed", "4"],
        "a64ed416eb380e2ca632afbef3b3819ae6f34eb134f68779f39a2b4c37b898a1",
        None,
    ),
    (
        "sweep_json",
        ["sweep", "--gen", "path:D=2,delta=4", "--axis", "D", "--values", "1,3", "--trials", "10", "--seed", "4",
         "--format", "json"],
        "3763a7eef5157aabc6aa79f21eb89baf8015e957c4b26f97375983b232d00575",
        None,
    ),
    ("impossible", ["impossible"], "f440bedd033366746ebe4b1b3f045f33c2d5243719e64655a5671b83618e8ec0", None),
    (
        "impossible_witnesses",
        ["impossible", "--witnesses"],
        "e7c18b80f74188c906d5b3074b13a711a3651258e4291ce0e3743f728769d6af",
        None,
    ),
    (
        "bound",
        ["bound", "--D", "2", "--delta", "5", "--n", "3"],
        "5aa58073f90126b3320d12b774c9a52738298df7e00aeb59525307677687eca5",
        None,
    ),
    (
        "compare_fullpath_inf",
        ["compare-fullpath", "--D", "1000", "--delta", "8"],
        "c63ad7e574ab538f534509c11a0abe87cc2c8669497de736bcd00f0ebf646905",
        None,
    ),
]


@pytest.mark.parametrize(
    "argv, out_digest, file_digest", [case[1:] for case in PINNED_OUTPUT], ids=[case[0] for case in PINNED_OUTPUT]
)
def test_cli_output_bytes_are_pinned(argv, out_digest, file_digest, tmp_path, capsys):
    target = tmp_path / "records"
    code, out, err = run_cli(capsys, [arg.replace("{out}", str(target)) for arg in argv])
    assert (code, err) == (0, "")
    assert sha256(out) == out_digest
    if file_digest is None:
        assert not target.exists()
    else:
        assert sha256(target.read_bytes()) == file_digest


def test_summary_json_keys_are_the_dataclass_fields():
    cfg = config_from_dict({"graph_source": "path:D=2,delta=4", "trials": 3})
    doc = run_experiment(cfg).summary.as_json_dict()
    assert list(doc) == [f.name for f in fields(SummaryStats)]
