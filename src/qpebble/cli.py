"""Command line front end.

Subcommands:
  simulate          run one experiment, write per-trial records, print summary
  sweep             repeat an experiment along one axis (n, D, delta)
  bound             print the failure-bound report for (D, delta, n, eps)
  compare-fullpath  per-node vs single-superposition measurement totals
  impossible        exhaustive no-classical-rule check on the 6-node gadgets
  gen-graph         emit a generated graph in the text format

Exit codes: 0 success, 1 experiment verdict failure (impossible check),
2 usage or config errors. When --seed is absent the QPEBBLE_SEED
environment variable is used, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import fields

from .analysis import bound_report, check_impossibility, compare_single_vs_per_node
from .encoding import EncodingScheme, family_delta
from .graph import GraphFormatError, serialize_graph
from .harness import (
    ExperimentConfig,
    _spec_int,
    config_from_dict,
    env_seed_default,
    parse_graph_source,
    records_to_csv,
    records_to_json,
    run_experiment,
    sweep,
    sweep_table_csv,
)

__all__ = ["main"]


def _finite(doc):
    """JSON-safe copy: non-finite floats become strings ('inf', 'nan')."""
    if isinstance(doc, dict):
        return {k: _finite(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(v) for v in doc]
    if isinstance(doc, float) and not math.isfinite(doc):
        return str(doc)
    return doc


def _print_json(doc, path=None) -> None:
    _write_text(path, json.dumps(_finite(doc), indent=2, sort_keys=True) + "\n")


def _opened(path):
    """A context giving an open text stream for a file path, or the stream given; None and '-' mean stdout."""
    if path is None or path == "-":
        path = sys.stdout
    return open(path, "w", encoding="utf-8", newline="") if isinstance(path, str) else contextlib.nullcontext(path)


def _write_text(path, text: str) -> None:
    with _opened(path) as fh:
        fh.write(text)


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    gen_help = "graph source: path:D=10,delta=4 | gpqr:p=2,q=2,r=2[,swaps=100] | file path"
    sub.add_argument("--gen", dest="graph_source", metavar="GEN", help=gen_help)
    sub.add_argument("--scheme", choices=[s.value for s in EncodingScheme])
    sub.add_argument("--strategy", help="fixed:auto | fixed:N | adaptive[:CAP] | qudit | random | table:3p=1,3n=0,...")
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int, help="default: QPEBBLE_SEED env var, else 0")
    sub.add_argument("--step-budget", type=int, dest="step_budget")
    sub.add_argument("--eps", type=float)
    sub.add_argument("--config", help="JSON file with ExperimentConfig fields; flags override it")
    sub.add_argument("--workers", type=int, default=1)


def _experiment_config(args):
    doc: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()  # outside the try: a file that is not UTF-8 keeps the codec's message
        try:
            doc = json.loads(text)
        except RecursionError:  # nested past the interpreter's recursion limit
            raise ValueError(f"config file {args.config!r} holds JSON nested too deeply") from None
        except json.JSONDecodeError as exc:  # its message gives the position
            raise ValueError(f"config file {args.config!r} is not valid JSON: {exc}") from None
        except ValueError:  # json.loads(str) raises no other: an integer past int()'s digit limit
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"config file {args.config!r} holds an integer of more than {limit} digits") from None
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
    for f in fields(ExperimentConfig):  # each flag's dest is the field it overrides
        if getattr(args, f.name) is not None:
            doc[f.name] = getattr(args, f.name)
    if "seed" not in doc:
        doc["seed"] = env_seed_default()
    return config_from_dict(doc)


def _cmd_simulate(args) -> int:
    cfg = _experiment_config(args)
    # --out opens before the run, as a shell redirect does, so a bad path fails before any trial
    with _opened(args.out) if args.out else contextlib.nullcontext() as out:
        result = run_experiment(cfg, workers=args.workers)
        if out is not None:
            (records_to_csv if args.format == "csv" else records_to_json)(result, out)
    # with the records on stdout, the summary goes to stderr so each stream parses on its own
    _print_json(result.summary.as_json_dict(), sys.stderr if args.out == "-" else None)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _experiment_config(args)
    values = [_spec_int(v, "--values", args.values) for v in args.values.split(",") if v.strip()]
    rows = sweep(cfg, args.axis, values, workers=args.workers)
    if args.format == "csv":
        _write_text(args.out, sweep_table_csv(args.axis, rows))
    else:
        _print_json([{"value": v, "summary": s.as_json_dict()} for v, s in rows], args.out)
    return 0


def _cmd_bound(args) -> int:
    _print_json(bound_report(args.D, family_delta(args.delta), n=args.n, eps=args.eps).as_json_dict())
    return 0


def _cmd_compare(args) -> int:
    _print_json(compare_single_vs_per_node(args.D, family_delta(args.delta), eps=args.eps).as_json_dict())
    return 0


def _table_key_str(key: tuple) -> str:
    names = ("3p", "3n", "1p", "1n")
    return ",".join(f"{name}={'s' if act is None else act}" for name, act in zip(names, key))


def _cmd_impossible(args) -> int:
    rep = check_impossibility()
    doc = {f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "witnesses"}
    if args.witnesses:
        doc["witnesses"] = [
            {
                "table": _table_key_str(key),
                "gadget": f"p={spec.pendant_ports[0]},q={spec.pendant_ports[1]},r={spec.pendant_ports[2]},"
                f"swaps={''.join('1' if s else '0' for s in spec.swaps)}",
            }
            for key, spec in rep.witnesses
        ]
    _print_json(doc)
    return 0 if rep.all_defeated and rep.no_universal_graph else 1


def _cmd_gen_graph(args) -> int:
    seed = args.seed if args.seed is not None else env_seed_default()
    g = parse_graph_source(args.gen, seed)
    _write_text(args.out, serialize_graph(g))
    return 0


# the subcommands, in the order the help lists them
_COMMANDS = ("simulate", "sweep", "bound", "compare-fullpath", "impossible", "gen-graph")


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser, with the one subcommand argv starts with (its usage line still names all), else with all of them."""
    parser = argparse.ArgumentParser(prog="qpebble", description=__doc__.splitlines()[0])
    one = argv[0] if argv and argv[0] in _COMMANDS else None
    subs = parser.add_subparsers(dest="command", required=True, metavar=one and "{%s}" % ",".join(_COMMANDS))
    if one in (None, "simulate"):
        sim = subs.add_parser("simulate", help="run one experiment")
        _add_experiment_flags(sim)
        sim.add_argument("--out", help="write per-trial records here ('-' for stdout)")
        sim.add_argument("--format", choices=["csv", "json"], default="csv")
        sim.set_defaults(func=_cmd_simulate)
    if one in (None, "sweep"):
        sw = subs.add_parser("sweep", help="repeat an experiment along one axis")
        _add_experiment_flags(sw)
        sw.add_argument("--axis", choices=["n", "D", "delta"], required=True)
        sw.add_argument("--values", required=True, help="comma separated integers")
        sw.add_argument("--out", help="write the table here (default stdout)")
        sw.add_argument("--format", choices=["csv", "json"], default="csv")
        sw.set_defaults(func=_cmd_sweep)
    if one in (None, "bound"):
        bd = subs.add_parser("bound", help="failure-bound report")
        bd.add_argument("--D", type=int, required=True)
        bd.add_argument("--delta", type=int, required=True)
        bd.add_argument("--n", type=int, default=None)
        bd.add_argument("--eps", type=float, default=0.01)
        bd.set_defaults(func=_cmd_bound)
    if one in (None, "compare-fullpath"):
        cmp_ = subs.add_parser("compare-fullpath", help="per-node vs single-state totals")
        cmp_.add_argument("--D", type=int, required=True)
        cmp_.add_argument("--delta", type=int, required=True)
        cmp_.add_argument("--eps", type=float, default=0.01)
        cmp_.set_defaults(func=_cmd_compare)
    if one in (None, "impossible"):
        imp = subs.add_parser("impossible", help="exhaustive classical-rule check")
        imp.add_argument("--witnesses", action="store_true", help="include the per-table witness gadgets")
        imp.set_defaults(func=_cmd_impossible)
    if one in (None, "gen-graph"):
        gg = subs.add_parser("gen-graph", help="emit a generated graph")
        gg.add_argument("--gen", required=True, help="path:D=10,delta=4 | gpqr:p=2,q=2,r=2[,swaps=100]")
        gg.add_argument("--seed", type=int)
        gg.add_argument("--out", help="output file (default stdout)")
        gg.set_defaults(func=_cmd_gen_graph)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"qpebble: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
