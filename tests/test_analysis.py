"""Failure bounds, sample-count requirements, the full-path comparison,
and the exhaustive classical impossibility check.

Numeric anchors come from a 50-digit mpmath evaluation of the closed
forms; they are frozen here at rel=1e-12.
"""

import math

import pytest

from qpebble import (
    DecisionTable,
    EncodingScheme,
    ExperimentConfig,
    FixedN,
    GadgetSpec,
    bitsign4_wrong_run_prob,
    bound_report,
    check_impossibility,
    classical_trajectory,
    compare_single_vs_per_node,
    delta_bound,
    exact_success_fixed,
    full_path_log_bound,
    gen_gpqr,
    gen_padded_path,
    gpqr_family,
    parse_graph_source,
    place_pebbles,
    required_n,
    run_experiment,
    success_lower_bound,
)
from qpebble import analysis
from qpebble.encoding import Placement, QuantumPebble, basis_family
from qpebble.quantum import QubitState, born_probability, snap_certain
from walks import turned

WLOG_TABLE = DecisionTable({(3, True): 1, (3, False): 0, (1, True): 0, (1, False): 0})
OSC_GADGET = GadgetSpec((2, 2, 2), (True, False, False))


def test_success_lower_bound_anchor():
    assert success_lower_bound(10, 4, 53) == pytest.approx(0.99097356905681435107, rel=1e-12)


def test_success_lower_bound_clamps_to_zero():
    # 1 - 4 * 0.8536^1 is negative: the bound is vacuous, not negative
    assert success_lower_bound(1, 4, 1) == 0.0
    assert success_lower_bound(20, 4, 2) == 0.0


def test_success_lower_bound_monotone_in_n():
    vals = [success_lower_bound(10, 4, n) for n in range(10, 80, 7)]
    assert vals == sorted(vals)
    assert vals[-1] > 0.999


def test_required_n_anchors():
    assert required_n(10, 4, 0.01) == 53
    assert required_n(5, 4, 0.01) == 49
    assert required_n(1, 2, 0.5) == 2


def test_required_n_is_tight():
    """The returned n meets the per-node budget and n-1 does not."""
    for dist, delta, eps in [(10, 4, 0.01), (3, 8, 0.05), (7, 2, 0.001)]:
        n = required_n(dist, delta, eps)
        assert delta * delta_bound(delta) ** n <= (eps / dist) * (1 + 1e-9)
        assert delta * delta_bound(delta) ** (n - 1) > eps / dist
        assert success_lower_bound(dist, delta, n) >= 1 - eps


def test_required_n_monotone():
    assert required_n(10, 4, 0.001) > required_n(10, 4, 0.01)
    assert required_n(20, 4, 0.01) > required_n(10, 4, 0.01)
    assert required_n(10, 8, 0.01) > required_n(10, 4, 0.01)


def _meets(dist, delta, eps, n):
    """required_n's test on n, with its float expression: ln of the union bound against ln of eps / dist."""
    return analysis._log_node_failure(delta, n) <= math.log(eps / float(dist) * (1.0 + 1e-9))


def test_required_n_is_the_least_n_meeting_its_test_over_a_grid():
    for dist in (1, 2, 3, 5, 10, 20, 100, 10**3, 2 * 10**4, 10**5, 10**6, 10**9):
        for delta in (2, 3, 4, 6, 8, 16, 32, 64, 100, 10**3, 2**16, 10**5, 10**6):
            for eps in (0.5, 0.1, 0.01, 1e-6):
                n = required_n(dist, delta, eps)
                assert _meets(dist, delta, eps, n), (dist, delta, eps, n)
                assert n == 1 or not _meets(dist, delta, eps, n - 1), (dist, delta, eps, n)


@pytest.mark.parametrize("dist, delta, n", [(1, 10**8, 103699213663464824), (10, 140_000_000, 115584471269729449)])
def test_required_n_where_the_bound_nears_1_takes_few_evaluations(dist, delta, n, monkeypatch):
    """Near the largest delta with a bound below 1, n passes 10^17: doubling and bisection reach it in about
    2 log2(n) evaluations of the bound, where a scan from a float guess took millions."""
    tried = []
    log_node_failure = analysis._log_node_failure
    monkeypatch.setattr(analysis, "_log_node_failure", lambda d, k: tried.append(k) or log_node_failure(d, k))
    assert required_n(dist, delta) == n
    assert len(tried) <= 130


def test_compare_names_a_dist_times_delta_past_float_range():
    """dist and delta each fit a float here, but the full-path budget's dist * delta does not."""
    with pytest.raises(ValueError, match=r"^dist \* delta is too large to convert to a float$"):
        compare_single_vs_per_node(10**308, 8)


def test_bound_report_fields():
    rep = bound_report(10, 4)
    doc = rep.as_json_dict()
    assert set(doc) == {"delta", "per_node_failure", "success_lower", "required_n"}
    assert doc["required_n"] == 53
    assert doc["delta"] == pytest.approx(0.8535533905932737622, rel=1e-12)
    assert doc["per_node_failure"] == pytest.approx(0.00090633063304401421714, rel=1e-12)
    assert doc["success_lower"] == pytest.approx(0.99097356905681435107, rel=1e-12)


def test_bound_report_with_explicit_n():
    rep = bound_report(10, 4, n=20)
    assert rep.required_n == 53  # the requirement is eps-driven, not n-driven
    assert rep.per_node_failure == pytest.approx(4 * delta_bound(4) ** 20, rel=1e-12)


def test_exact_success_fixed_closed_form():
    # delta=4: every pebble has one certain basis and one at p = cos^2(pi/8)
    # or its complement, which runs uniform with chance p^n + (1-p)^n
    placement = place_pebbles(gen_padded_path(10, 4, 7), EncodingScheme.GENERAL)
    p = math.cos(math.pi / 8) ** 2
    for n in (1, 8, 53):
        assert exact_success_fixed(placement, n) == pytest.approx((1 - p**n - (1 - p) ** n) ** 10, rel=1e-12)
    # delta=2: the one basis is certain, so nothing can go wrong
    assert exact_success_fixed(place_pebbles(gen_padded_path(5, 2, 1), EncodingScheme.GENERAL), 1) == 1.0
    for n in (0, -1):
        with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n}$"):
            exact_success_fixed(placement, n)


def test_exact_success_fixed_equals_the_per_pebble_product():
    """One factor per distinct state, raised to its count, must equal the
    product taken pebble by pebble, also for turned and off-family states
    that no basis decodes with certainty."""
    placement = place_pebbles(gen_padded_path(60, 8, 3), EncodingScheme.GENERAL)
    pebbles = dict(placement.pebbles)
    for i, node in enumerate(list(pebbles)[::7]):
        pebble = pebbles[node]
        pebbles[node] = QuantumPebble(node, turned(pebble.emitted_state, 0.1 * (i % 3 + 1)), pebble.exit_port)
    pebbles[5] = QuantumPebble(5, QubitState(0.6 + 0j, 0.8j), 2)
    mixed = Placement(EncodingScheme.GENERAL, 8, pebbles)
    assert len(mixed.states) > len(placement.states)
    for n in (1, 5, 40, 300):
        want = 1.0
        for pebble in pebbles.values():
            for basis in basis_family(EncodingScheme.GENERAL, 8):
                p = snap_certain(born_probability(pebble.emitted_state, basis.plus_vec))
                if 0.0 < p < 1.0:
                    want *= max(0.0, 1.0 - p**n - (1.0 - p) ** n)
        assert exact_success_fixed(mixed, n) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [8, 16])
def test_fixed_n_success_rate_matches_exact_expectation(n):
    """Binomial z-test of simulated fixed-n successes against the exact
    rate, where failures are common (about 96% of trials at n=8, 58% at
    n=16): a check of the trial engine independent of the union bound."""
    cfg = ExperimentConfig(graph_source="path:D=10,delta=4", strategy=FixedN(n), trials=4000, seed=5)
    successes = run_experiment(cfg).summary.successes
    p = exact_success_fixed(place_pebbles(parse_graph_source(cfg.graph_source, cfg.seed), cfg.scheme), n)
    z = (successes - cfg.trials * p) / math.sqrt(cfg.trials * p * (1 - p))
    assert abs(z) < 4, (successes, p, z)


def chi2_sf(x, dof):
    """P(chi-square with ``dof`` degrees of freedom > x): one minus the regularized lower incomplete gamma
    function P(dof/2, x/2), from its series y^a e^-y / Gamma(a) * sum_j y^j / (a (a+1) ... (a+j))."""
    a, y = dof / 2, x / 2
    term = total = 1 / a
    j = 0
    while term > 1e-17 * total:
        j += 1
        term *= y / (a + j)
        total += term
    return 1 - math.exp(a * math.log(y) - y - math.lgamma(a)) * total


def test_chi2_sf_matches_tabled_quantiles():
    # the 0.999 quantiles of chi-square at 1, 5, 9 and 11 degrees of freedom
    for x, dof in ((10.828, 1), (20.515, 5), (27.877, 9), (31.264, 11)):
        assert chi2_sf(x, dof) == pytest.approx(0.001, rel=1e-3)
    assert chi2_sf(9, 2) == pytest.approx(math.exp(-4.5), rel=1e-12)


@pytest.mark.parametrize("dist, delta, n", [(10, 4, 3), (10, 4, 8), (12, 8, 12)])
def test_fixed_n_steps_follow_the_exact_law(dist, delta, n):
    """The whole law of a fixed-n run's steps, not only its success rate.
    Node k decodes unless one of its uncertain bases runs uniform, which a
    basis at P(plus) p does with chance p^n + (1-p)^n, so it decodes with
    q_k = prod (1 - p^n - (1-p)^n) over them, p snapped as the agent snaps
    it; steps = k with chance q_0 ... q_(k-1) (1 - q_k), and steps = D is
    success. The simulated histogram, over cells pooled to an expected count
    of at least 5, must pass a chi-square test at the 0.999 quantile."""
    trials = 20_000
    cfg = ExperimentConfig(graph_source=f"path:D={dist},delta={delta}", strategy=FixedN(n), trials=trials, seed=11)
    g = parse_graph_source(cfg.graph_source, cfg.seed)
    placement = place_pebbles(g, cfg.scheme)
    family = basis_family(cfg.scheme, placement.delta)
    law, reach = [], 1.0  # reach: the chance of decoding every node before k
    for node in placement.nodes.tolist():
        ps = [snap_certain(born_probability(placement.pebbles[node].emitted_state, b.plus_vec)) for b in family]
        q = math.prod(1 - p**n - (1 - p) ** n for p in ps if 0 < p < 1)
        law.append(reach * (1 - q))
        reach *= q
    law.append(reach)
    assert len(law) == dist + 1 and sum(law) == pytest.approx(1, abs=1e-12)
    seen = [0] * (dist + 1)
    for row, lo, hi in run_experiment(cfg).runs:
        seen[row[1]] += hi - lo
    cells, want, got = [], 0.0, 0  # adjacent steps pooled until the expected count reaches 5
    for k in range(dist + 1):
        want, got = want + trials * law[k], got + seen[k]
        if want >= 5:
            cells.append((want, got))
            want, got = 0.0, 0
    if want:
        cells[-1] = (cells[-1][0] + want, cells[-1][1] + got)
    chi2 = sum((o - e) ** 2 / e for e, o in cells)
    assert len(cells) >= 5 and chi2_sf(chi2, len(cells) - 1) > 0.001, (chi2, cells)


def test_bitsign4_wrong_run_prob():
    assert bitsign4_wrong_run_prob(5) == pytest.approx(0.0625)
    assert bitsign4_wrong_run_prob(11) == pytest.approx(0.0009765625)
    for n in range(1, 20):
        assert bitsign4_wrong_run_prob(n) == pytest.approx(2.0 ** (1 - n), rel=1e-15)


FULL_PATH_ANCHORS = [
    # (dist, delta, ln(1/delta') from the 50-digit oracle)
    (1, 2, 0.69314718055994530942),
    (1, 4, 0.15834718382037493889),
    (3, 4, 0.00060245333598690412346),
    (5, 4, 2.3530979804471254586e-6),
    (13, 2, 3.6767141750338982221e-8),  # direct branch, x just above cutoff
    (14, 2, 9.1917853953402857899e-9),  # series branch, x just below cutoff
]


@pytest.mark.parametrize("dist,delta,want", FULL_PATH_ANCHORS)
def test_full_path_log_inv_anchors(dist, delta, want):
    fp = full_path_log_bound(dist, delta)
    assert fp.log_inv_delta_prime == pytest.approx(want, rel=1e-8)
    assert fp.ln_log_inv_delta_prime == pytest.approx(math.log(want), abs=1e-8)


def test_full_path_single_step_equals_per_node_bound():
    """At D=1 the enlarged family is the ordinary family."""
    fp = full_path_log_bound(1, 4)
    assert fp.log_inv_delta_prime == pytest.approx(-math.log(delta_bound(4)), rel=1e-12)


def test_full_path_measurement_count_anchor():
    fp = full_path_log_bound(1, 4, eps=0.01)
    assert fp.measurement_count_estimate == pytest.approx(37.837518815014409199, rel=1e-10)


def test_full_path_log_fields_survive_extreme_sizes():
    """Direct fields overflow to inf far beyond float range; the ln-domain
    companions stay finite and ordered."""
    fp = full_path_log_bound(1_000_000, 2**16)
    assert fp.measurement_count_estimate == math.inf
    assert math.isfinite(fp.ln_log_inv_delta_prime)
    assert math.isfinite(fp.ln_measurement_count)
    assert fp.log_inv_delta_prime == 0.0  # x^2 underflows; that is the point
    smaller = full_path_log_bound(999_999, 2**16)
    assert smaller.ln_log_inv_delta_prime > fp.ln_log_inv_delta_prime


def test_full_path_validation():
    with pytest.raises(ValueError):
        full_path_log_bound(0, 4)
    with pytest.raises(ValueError):
        full_path_log_bound(3, 1)
    with pytest.raises(ValueError):
        full_path_log_bound(3, 4, eps=0.0)


def test_compare_grid_full_path_costs_at_least_per_node():
    for dist in range(2, 7):
        for delta in (2, 4, 8):
            rep = compare_single_vs_per_node(dist, delta)
            assert rep.full_path_at_least_per_node, (dist, delta)
            assert rep.per_node_total == dist * rep.required_n * (delta // 2)
            assert rep.required_n == required_n(dist, delta, 0.01)


def test_compare_ratio_blows_up_with_distance():
    rep = compare_single_vs_per_node(5, 4)
    assert rep.per_node_total == 490
    assert rep.full_path_total == pytest.approx(1653846160.0932016635, rel=1e-8)
    assert rep.full_path_total / rep.per_node_total > 1e3
    ratios = [
        compare_single_vs_per_node(d, 4).full_path_total
        / compare_single_vs_per_node(d, 4).per_node_total
        for d in range(2, 7)
    ]
    assert ratios == sorted(ratios)


def test_compare_json_fields():
    doc = compare_single_vs_per_node(3, 4).as_json_dict()
    assert {"full_path_total", "per_node_total", "required_n", "D"} <= set(doc)
    with pytest.raises(ValueError):
        compare_single_vs_per_node(3, 3)


def test_impossibility_every_table_is_defeated():
    rep = check_impossibility()
    assert rep.tables_total == 64
    assert rep.tables_defeated == 64
    assert rep.all_defeated
    assert len(rep.witnesses) == 64
    assert rep.max_walk_steps <= 7


def test_impossibility_no_single_graph_beats_all_tables():
    rep = check_impossibility()
    assert rep.no_universal_graph


def test_oscillation_gadget_defeats_the_wlog_table_under_all_placements():
    """The pebble-means-port-1 rule never finds the treasure on the swapped
    (2,2,2) gadget, whatever subset of the six nodes is pebbled."""
    g = gen_gpqr(OSC_GADGET)
    for bits in range(64):
        pebbled = frozenset(v for v in range(6) if bits >> v & 1)
        traj = classical_trajectory(g, pebbled, WLOG_TABLE)
        assert traj[-1] != g.treasure


def test_stay_everywhere_table_loses_on_every_gadget():
    stay = DecisionTable(
        {(3, True): None, (3, False): None, (1, True): None, (1, False): None}
    )
    for _, g in gpqr_family():
        traj = classical_trajectory(g, frozenset(), stay)
        assert traj[-1] != g.treasure
