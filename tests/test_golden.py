"""Golden digests: the per-trial records of a fixed grid of experiments.

Each case runs one small experiment and pins the SHA-256 of its
``records_to_csv`` text. The grid covers every strategy form, every
scheme a walking agent can decode, even and odd degrees, the gadget
family and a file-format graph, so a refactor of sampling, decoding,
placement or the trial loop that changes any output byte fails here.
A change that alters a digest on purpose must say why in CHANGES.md.
"""

import hashlib

import pytest

from qpebble import (
    Adaptive,
    EncodingScheme,
    ExperimentConfig,
    FailureKind,
    FixedN,
    RngStream,
    parse_strategy,
    records_to_csv,
    run_experiment,
    run_trial,
)
from walks import FLIPPED_NODE, flipped_sign

SEED = 11
TRIALS = 60

# Max degree 3, so the qubit family rounds up to delta 4. Two shortest
# routes 0-1-2-5 and 0-1-3-5 tie; the smallest port at node 1 picks the
# first.
ODD_GRAPH = """\
8 8
0 5
0 0 1 2
0 1 6 0
0 2 7 0
1 0 2 1
1 1 3 0
2 0 5 1
2 2 4 0
3 1 5 0
"""

GRAPHS = {
    "path4": "path:D=6,delta=4",
    "path8": "path:D=5,delta=8",
    "gpqr": "gpqr:p=2,q=1,r=0,swaps=101",
    "odd": None,  # ODD_GRAPH, written to a file per test
}

TABLES = {
    "gpqr": "table:3p=1,3n=0,1p=0,1n=s",
    "odd": "table:3p=0,3n=1,2p=1,2n=s,1p=0,1n=0",
}

QUBIT_STRATEGIES = ("fixed:auto", "fixed:3", "adaptive", "adaptive:4")


def _cases():
    for graph in GRAPHS:
        for strategy in QUBIT_STRATEGIES:
            yield graph, "general", strategy
            if graph != "path8":  # bitsign4 handles degree <= 4 only
                yield graph, "bitsign4", strategy
        yield graph, "qudit", "qudit"
        yield graph, "general", "random"
        if graph in TABLES:
            yield graph, "general", TABLES[graph]


DIGESTS = {
    ("path4", "general", "fixed:auto"): "90fdf519dffd1ebf41b677e751fb742ff6edd0ebda8b04ddd35d26699c6959e7",
    ("path4", "bitsign4", "fixed:auto"): "90fdf519dffd1ebf41b677e751fb742ff6edd0ebda8b04ddd35d26699c6959e7",
    ("path4", "general", "fixed:3"): "862638ac0b69669330551f9de2f7bdd05c9b94f7471fff902cf4eb6fcefc7bf5",
    ("path4", "bitsign4", "fixed:3"): "7ffc375f0eb458b6803943d377574696ce6b9a19cae0e62ccec78732725e7017",
    ("path4", "general", "adaptive"): "62b3301d257e6d69e50198358467aad4768091a4c142f97be56b5b74c0456350",
    ("path4", "bitsign4", "adaptive"): "8c81b773d37693a91b709eb61a5de77702123814c289b6e5c56b4e55553c358d",
    ("path4", "general", "adaptive:4"): "1578b02fc5103f14cfe10822bf98b0e45f9f10ff8b8e412ffb4289747a527367",
    ("path4", "bitsign4", "adaptive:4"): "4d022dee5d7ea94fc78569ac51b5ef2e0ed466e0bd635d4bf2648b1c1ee764b6",
    ("path4", "qudit", "qudit"): "7030455cc3d4063977fbcc09bdd3cf0a4071737b44d57df243bde8ab59c31b34",
    ("path4", "general", "random"): "7051d39ca9555b10cf1ceeb5fca72451ab92510ed233ce4fc4ede3257eba53a8",
    ("path8", "general", "fixed:auto"): "f5b79f186b3385d50fdc2f55d0da4f126375c415c67a7f018ced739f29b8ad55",
    ("path8", "general", "fixed:3"): "8367b251bff23601762cb2816cc6f6e2adc9619aed711b6bda0b0c3acce221cb",
    ("path8", "general", "adaptive"): "feb129346a1c0767e2b4eff155b80374ff5c37022b492327162e2c299d395f0a",
    ("path8", "general", "adaptive:4"): "e119e007ef267285b689ebe81c2b9b353950bda3b61d002db54b56e24828b4e4",
    ("path8", "qudit", "qudit"): "4090cef64a5718d88bc4085e7f239fe86277a0552b76477a81d2d232f4eefb5d",
    ("path8", "general", "random"): "7f4be739456bb58877ad342d5e8ea76de9d0d3b9c5896f52e72130cfa2c9c5d7",
    ("gpqr", "general", "fixed:auto"): "4c8ce493c011a2c7924bd5e6f9002d61494b55fe7f37af222b6d650d6939ac1d",
    ("gpqr", "bitsign4", "fixed:auto"): "4c8ce493c011a2c7924bd5e6f9002d61494b55fe7f37af222b6d650d6939ac1d",
    ("gpqr", "general", "fixed:3"): "597e9ba65dd2a3e526784a76fd58551c903d0f09d2855d0cff701da808923e63",
    ("gpqr", "bitsign4", "fixed:3"): "4ede8d5128999931ff5e660be1fe23764e57d05988aa4cf6bb91baa634ff22bc",
    ("gpqr", "general", "adaptive"): "29649932ecfc9c2fa6d656f9825b5cf14cefc34ed9aa3420cc4552fee36fce4c",
    ("gpqr", "bitsign4", "adaptive"): "e2f8b58b5c96b9ee833c6e5d160d9d3a5ed2760a8dd2cd7389461cccec1dfa31",
    ("gpqr", "general", "adaptive:4"): "07b5c837c5045a5874c75d228ab37d44c62627a75771c3cb69bfd6e44b2a027e",
    ("gpqr", "bitsign4", "adaptive:4"): "dce177859b7096df77d2823323688daf5361ab70e99c31594770003201baffe2",
    ("gpqr", "qudit", "qudit"): "18393c0e1ff78820f239e5ad30b92bd3651bb9d00cd771807b0f933e0e7c480c",
    ("gpqr", "general", "random"): "18a6068f4920f670ef1ed9fa2af5d9f75ed355a191d354a3a0690eb7cfc516b9",
    ("gpqr", "general", "table:3p=1,3n=0,1p=0,1n=s"): "d3c243351777290b1a55795ef461f2084f9c58c00d9a1eec1e0e3ab93438544b",
    ("odd", "general", "fixed:auto"): "1ada82cc74342fcd24c2179bcaa126a59c2daadd6a4f61fc36434da41aabd0a6",
    ("odd", "bitsign4", "fixed:auto"): "1ada82cc74342fcd24c2179bcaa126a59c2daadd6a4f61fc36434da41aabd0a6",
    ("odd", "general", "fixed:3"): "53aa3de006451c3f7e1792ed89837d64a1d56e52ee3338e7f6ca6b5f5ee6bb6a",
    ("odd", "bitsign4", "fixed:3"): "55cc211ffecbe2d1d9fdee77e02289df449e7fa127c960af5b1ecb76094a0fa8",
    ("odd", "general", "adaptive"): "00225c5cd6ad61994529950d8a26b5b0ced0945b10ca090ccc174dfab7961ac3",
    ("odd", "bitsign4", "adaptive"): "acb48998c79190e97778a28b5cea9cbdc0fd43a8b38c88c9575a42e6ece87975",
    ("odd", "general", "adaptive:4"): "def84e4b84a1cc946a7a8c6cab91cd60dbf10e1525881388e1f48d1414531729",
    ("odd", "bitsign4", "adaptive:4"): "cc9a2171261c2a2cff0b65e124fad29b3ebc2a16df8a0c579ff3bcaa1de66f23",
    ("odd", "qudit", "qudit"): "e2f7784500f3af787f1b23e4814ee03260b0934a5453596e35b7d20104dd3a17",
    ("odd", "general", "random"): "d80b93bde86235a90122f00bb162d6d4cb7e66fdc8dfa5b5f9a90d917edf662d",
    ("odd", "general", "table:3p=0,3n=1,2p=1,2n=s,1p=0,1n=0"): "aad186874400e7058842bf08cb81e0bfba678576a783f636d3c04bedae4b3e84",
}


@pytest.mark.parametrize("case", list(_cases()), ids="-".join)
def test_records_digest(case, tmp_path):
    graph, scheme, strategy = case
    source = GRAPHS[graph]
    if source is None:
        path = tmp_path / "odd.txt"
        path.write_text(ODD_GRAPH)
        source = str(path)
    cfg = ExperimentConfig(
        graph_source=source,
        scheme=EncodingScheme(scheme),
        strategy=parse_strategy(strategy),
        trials=TRIALS,
        seed=SEED,
        # random walks need room to wander before they can succeed
        step_budget=40 if strategy == "random" else None,
    )
    text = records_to_csv(run_experiment(cfg).records)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[case]


# Fixed-n walks long enough to be measured in several stretches of nodes,
# whole and cut short by a step budget below the distance. At n=200 about
# one trial in five fails, at a node anywhere along the route. Adaptive
# walks on the D=100 route read about 9000 draws a trial; a cap of 8 fails
# every trial at its first node, a cap of 300 fails about a third of them
# at nodes 2 to 99, and a budget of 40 stops every trial mid-route.
# At delta 16 the nearest wrong basis has p = cos^2(pi/32) ~ 0.990, so at
# n=300 most trials fail as ambiguous somewhere along the D=30 route; at
# delta 8 and n=2500 one node takes 10000 draws, more than 8192.
ROUTE_TRIALS = 30
ROUTE_CASES = {
    ("path:D=200,delta=8", "fixed:auto", None): "cec8e3ef8daf10c67fbadd2651b144f94cd39ed98f1b6f5cbc6b10f62c1140d7",
    ("path:D=200,delta=8", "fixed:200", None): "105de83d7e54c41b9dc2437a67f199e05e0c0a25efb43b968285fa3112111dbf",
    ("path:D=200,delta=8", "fixed:200", 120): "c483f1dc6d39575646bbe46135232e819c6eea822e069f9c7516f3c52c9a40fb",
    ("path:D=6,delta=4", "fixed:3", 4): "9156e7900ee9a0391ee592cc4cc0fe1cfd9b8f6860bda419a132a23397cbcb59",
    ("path:D=30,delta=16", "fixed:300", None): "6bb75830cc8be8e22e2388fc213445cc8e813a01b9d650d1eb286e0bf9b99c63",
    ("path:D=5,delta=8", "fixed:2500", None): "673692b514ab9df1a065cd0e4d19833c8c9703e369faac90516e4ac2080ddc39",
    ("path:D=100,delta=8", "adaptive", None): "0acb713838d48d3acc07cffba39e990715c7cc9f80ebafa64270167b018ad571",
    ("path:D=100,delta=8", "adaptive:8", None): "550ea13bace3b858a53fa3922f3e3063aa6297802202a449c92a8424b57b6803",
    ("path:D=100,delta=8", "adaptive:300", None): "3b77e191ae8241e367a30247abc7e506b585a5a8a4c80eab906c3c4de2829cb8",
    ("path:D=100,delta=8", "adaptive", 40): "27f953b8d0110df76727238b2e08f15745cab7bd7c04aec0999331bff4843885",
}


@pytest.mark.parametrize("case", list(ROUTE_CASES), ids=lambda c: "-".join(map(str, c)))
def test_route_records_digest(case):
    source, strategy, budget = case
    cfg = ExperimentConfig(
        graph_source=source,
        strategy=parse_strategy(strategy),
        trials=ROUTE_TRIALS,
        seed=SEED,
        step_budget=budget,
    )
    text = records_to_csv(run_experiment(cfg).records)
    assert hashlib.sha256(text.encode()).hexdigest() == ROUTE_CASES[case]


# walks.flipped_sign: the flipped sign at FLIPPED_NODE sends the agent
# through port 2 to a decoy, which has no pebble
FLIPPED_DIGEST = "83ef54b02eb1683e99a0d23d9222c1d5a3c9ac6cf62b2ecb1c6929eeb142dea3"
FLIPPED_ADAPTIVE_DIGEST = "03a4845a9d31556582ea6d8e84ad329f3cc76ddcdd214d5893aa55c4fd6cab39"


def _flipped_records(strategy):
    g, placement, budget = flipped_sign()
    records = [run_trial(g, placement, strategy, budget, RngStream(SEED, i)) for i in range(TRIALS)]
    assert any(r.failure_kind is FailureKind.MISSING_PEBBLE and r.steps_taken == FLIPPED_NODE + 1 for r in records)
    return records_to_csv(records)


def test_flipped_sign_records_digest():
    text = _flipped_records(FixedN(20))
    assert hashlib.sha256(text.encode()).hexdigest() == FLIPPED_DIGEST


def test_flipped_sign_adaptive_records_digest():
    text = _flipped_records(Adaptive())
    assert hashlib.sha256(text.encode()).hexdigest() == FLIPPED_ADAPTIVE_DIGEST
