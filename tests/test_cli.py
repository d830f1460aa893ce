"""CLI surface: subcommands, exit codes, output formats, env seed."""

import json

import pytest

from qpebble import cli, parse_graph, run_experiment
from qpebble.cli import main
from qpebble.harness import config_from_dict


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
    assert len(json.loads(out)["witnesses"]) == 64


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
    code, _, err = run_cli(capsys, ["sweep", "--gen", "path:D=3,delta=4", "--axis", "n", "--values", "0"])
    assert code == 2
    assert "qpebble: error: FixedN.n must be >= 1, got 0" in err
    argv = ["simulate", "--gen", "path:D=10,delta=4", "--strategy", "adaptive", "--eps", "2", "--trials", "30000"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "qpebble: error: eps must be in (0, 1), got 2.0" in err
    for delta in ("0", "-3"):
        code, _, err = run_cli(capsys, ["bound", "--D", "3", "--delta", delta])
        assert code == 2
        assert "qpebble: error: delta must be >= " in err and f"got {delta}" in err


def test_argparse_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen-graph"])  # --gen is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
