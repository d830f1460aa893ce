"""Names other code depends on: the package exports and the functions the
benchmark's tracer wraps from outside the program."""

import importlib
import sys
from pathlib import Path

import qpebble

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_package_exports_every_module_list():
    assert sorted(qpebble.__all__) == [
        "Adaptive", "AgentStrategy", "BoundReport", "ClassicalTable", "ComparisonReport", "DecisionTable",
        "EncodingScheme", "ExperimentConfig", "ExperimentResult", "FULL_PATH_CAP", "FailureKind", "FixedN",
        "FullPathBound", "GadgetSpec", "GraphFormatError", "ImpossibilityReport", "KET0", "KET1", "KET_MINUS",
        "KET_PLUS", "MINUS", "MeasurementBasis", "Outcome", "PLUS", "Placement", "PortGraph", "QuantumPebble",
        "QubitState", "QuditOneShot", "RandomWalk", "RngStream", "SummaryStats", "TrialResult", "basis_family",
        "bitsign4_wrong_run_prob", "bloch_angles", "born_probability", "bound_report", "build_basis",
        "check_impossibility", "classical_trajectory", "compare_single_vs_per_node", "cross_overlap_closed_form",
        "decide_fixed", "decode_full_path", "decode_outcome", "decode_qudit", "delta_bound", "encode_full_path",
        "encode_port", "encode_qudit", "exact_success_fixed", "full_path_log_bound", "gen_gpqr", "gen_padded_path",
        "gpqr_family", "measure_node_adaptive", "measure_node_fixed", "neighbor_via_port", "parse_graph",
        "parse_graph_source", "parse_strategy", "place_pebbles", "placement_from_json", "placement_to_json",
        "records_to_csv", "records_to_json", "required_n", "run_experiment", "run_trial", "sample_measurement",
        "serialize_graph", "shortest_path", "success_lower_bound", "sweep", "sweep_table_csv", "validate", "wilson_ci",
    ]
    assert all(hasattr(qpebble, name) for name in qpebble.__all__)


def test_bench_traced_functions_resolve(monkeypatch):
    """bench/spans.py wraps these by module and attribute name; a rename
    would only fail inside the traced benchmark run."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    targets = [(module, attr) for module, attr, _ in spans.TRACED_FUNCTIONS]
    targets.append(("qpebble.agent", "born_probability"))
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    for attr in ("__init__", "uniform", "uniforms"):
        assert callable(getattr(qpebble.RngStream, attr))
