"""States, measurement bases, Born sampling, and the PCG32 stream.

Expected constants were computed independently (50-digit mpmath for the
overlaps and bounds, a from-scratch PCG32 for the stream) and frozen here.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpebble import (
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    MINUS,
    PLUS,
    Outcome,
    QubitState,
    RngStream,
    bloch_angles,
    born_probability,
    build_basis,
    cross_overlap_closed_form,
    delta_bound,
    sample_measurement,
)
from qpebble.rng import _jump

# fmt: off
PCG_REF = {
    (42, 54): [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E],
    (7, 0):   [4063834449, 2143014202, 2740157135, 3385478207],
    (7, 1):   [2215483850, 315054046, 1954657312, 4195553631],
}
# fmt: on


def test_pcg32_reference_sequences():
    for (seed, stream), want in PCG_REF.items():
        s = RngStream(seed, stream)
        assert [s.next_u32() for _ in range(len(want))] == want


def test_pcg32_demo_known_answer():
    """The PCG32 reference demo's first six outputs at seed 42, stream 54,
    through every way RngStream reads them: scalar draws, the block path and
    reads by offset, one run of six and six runs of one."""
    want = [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]
    rng = RngStream(42, 54)
    assert [rng.next_u32() for _ in range(3)] + [int(rng.uniform() * 2**32) for _ in range(3)] == want
    assert (RngStream(42, 54).uniforms(6) * 2**32).astype(np.uint32).tolist() == want
    assert RngStream(42, 54).runs(np.array([0]), 6)[0].tolist() == want
    assert RngStream(42, 54).runs(np.arange(6), 1)[:, 0].tolist() == want


def test_pcg32_streams_are_deterministic_and_distinct():
    a = RngStream(123, 5)
    b = RngStream(123, 5)
    c = RngStream(123, 6)
    seq_a = [a.next_u32() for _ in range(64)]
    seq_b = [b.next_u32() for _ in range(64)]
    seq_c = [c.next_u32() for _ in range(64)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_uniforms_block_path_matches_scalar_draws():
    """The vectorized generator must be bit-identical to repeated uniform(),
    including across the internal block boundary."""
    n = 20000
    block = RngStream(99, 3).uniforms(n)
    scalar = RngStream(99, 3)
    for i in range(0, n, 997):
        assert block[i] == scalar_skip(scalar, i)


def scalar_skip(stream, target, _pos=[0]):
    # helper keeps one running stream and advances to the target index
    while _pos[0] < target:
        stream.uniform()
        _pos[0] += 1
    _pos[0] += 1
    return stream.uniform()


PCG_MULT = 6364136223846793005
MASK64 = (1 << 64) - 1
SEEDS = st.integers(0, MASK64)
STREAMS = st.integers(0, 2**32)


def ref_draw(seed, stream_id, offset):
    """The u32 draw ``offset`` steps into stream (seed, stream_id), straight
    from the PCG32 definition on Python ints: seed the LCG, jump it by
    square-and-multiply, apply XSH-RR."""
    inc = (2 * stream_id + 1) & MASK64
    state = ((inc + seed) * PCG_MULT + inc) & MASK64
    mult, add = PCG_MULT, inc
    while offset:
        if offset & 1:
            state = (state * mult + add) & MASK64
        mult, add = (mult * mult) & MASK64, (add * mult + add) & MASK64
        offset >>= 1
    xorshifted = (((state >> 18) ^ state) >> 27) & 0xFFFFFFFF
    rot = state >> 59
    return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF


def test_reference_draw_is_pcg32():
    for (seed, stream), want in PCG_REF.items():
        assert [ref_draw(seed, stream, i) for i in range(len(want))] == want


NEAR_FIRST_LEVEL = st.one_of(st.integers(2**13 - 40, 2**13 + 40), st.integers(0, 2**14))


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    stream_id=STREAMS,
    skipped=st.integers(0, 50),
    starts=st.lists(NEAR_FIRST_LEVEL, min_size=1, max_size=6),
    length=st.integers(1, 64),
)
def test_runs_match_uniforms_around_the_first_table_level(seed, stream_id, skipped, starts, length):
    """runs() reads the draws uniforms() makes, from any position, and
    leaves the stream where it was."""
    s, ref = RngStream(seed, stream_id), RngStream(seed, stream_id)
    for _ in range(skipped):
        s.next_u32()
        ref.next_u32()
    got = s.runs(np.array(starts), length)
    flat = (ref.uniforms(max(starts) + length) * 2.0**32).astype(np.int64)
    assert got.shape == (len(starts), length)
    for row, start in zip(got.tolist(), starts):
        assert row == flat[start : start + length].tolist()
    assert s.next_u32() == ref_draw(seed, stream_id, skipped)


# offsets at and past the second table level (2^26), mixed in one array so
# the squaring steps apply to some entries and not others
FAR = st.one_of(st.integers(2**26 - 40, 2**26 + 40), st.integers(0, 2**40), st.integers(2**26, 2**63 - 1))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, stream_id=STREAMS, starts=st.lists(FAR, min_size=1, max_size=5), length=st.integers(1, 12))
def test_runs_match_the_pcg_definition_at_far_offsets(seed, stream_id, starts, length):
    """Past 2^26 a uniforms() reference would need hundreds of MB, so the
    reference is the square-and-multiply jump on Python ints."""
    got = RngStream(seed, stream_id).runs(np.array(starts), length)
    for row, start in zip(got.tolist(), starts):
        assert row == [ref_draw(seed, stream_id, start + j) for j in range(length)]


# offsets on both sides of the table edges at 2^13 and 2^26, from which runs
# of up to 8192 draws cross them
EDGES = st.one_of(st.integers(0, 2**13 + 40), st.integers(2**26 - 2**13 - 40, 2**26 + 40))


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    stream_id=STREAMS,
    starts=st.lists(EDGES, min_size=1, max_size=4),
    width=st.integers(1, 2**13),
    more=st.integers(0, 2**13),
)
def test_carried_states_read_on_as_fresh_jumps(seed, stream_id, starts, width, more):
    """run_states() gives runs()' draws and each run's state after them, the
    fresh jump to its offset + width; read on from those carried states, it
    gives runs() at the offsets there, as it does from states made of kept
    jumps, and the stream does not move."""
    s, starts = RngStream(seed, stream_id), np.array(starts)
    u, carried = s.run_states(starts, width)
    assert np.array_equal(u, s.runs(starts, width))
    assert np.array_equal(carried, s.run_states(starts + width, 0)[1])
    on, after = s.run_states(starts + width, more, carried)
    assert np.array_equal(on, s.runs(starts + width, more))
    a, c = _jump(starts + width)  # the kept jumps (A^o, G_o) a fixed-n block reads its first round from
    kept, kept_after = s.run_states(starts + width, more, a * np.uint64(s._state) + c * np.uint64(s._inc))
    assert np.array_equal(kept, on) and np.array_equal(kept_after, after)
    assert s.next_u32() == ref_draw(seed, stream_id, 0)


def test_runs_reject_negative_offsets():
    """A negative offset's high part stays -1 under the arithmetic shift, so
    the jump refuses it rather than loop."""
    for starts in ([-1], [5, -8193], [-(2**40)]):
        with pytest.raises(ValueError, match=r"^stream offsets must be >= 0, got -"):
            RngStream(1, 2).runs(np.array(starts), 4)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, stream_id=STREAMS, m=st.one_of(st.integers(0, 3 * 2**13), st.integers(2**13 - 2, 2**13 + 2)))
def test_uniforms_skips_exactly_the_draws_it_makes(seed, stream_id, m):
    """Jumping past m draws leaves the stream where drawing them one by one
    does."""
    s = RngStream(seed, stream_id)
    s.uniforms(m)
    assert [s.next_u32() for _ in range(3)] == [ref_draw(seed, stream_id, m + j) for j in range(3)]


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, stream_id=STREAMS, skipped=st.integers(0, 100), n=st.integers(0, 2 * 2**13 + 10))
def test_uniforms_match_scalar_uniform_calls(seed, stream_id, skipped, n):
    a, b = RngStream(seed, stream_id), RngStream(seed, stream_id)
    for _ in range(skipped):
        a.uniform()
        b.uniform()
    assert a.uniforms(n).tolist() == [b.uniform() for _ in range(n)]
    assert a.next_u32() == b.next_u32()


def test_uniform_range_and_below():
    s = RngStream(1, 0)
    us = s.uniforms(10000)
    assert (us >= 0.0).all() and (us < 1.0).all()
    t = RngStream(2, 0)
    draws = [t.below(7) for _ in range(2000)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7


def test_qubit_state_requires_unit_norm():
    with pytest.raises(ValueError, match="norm"):
        QubitState(1.0, 1.0)
    QubitState(math.sqrt(0.5), math.sqrt(0.5))  # fine


def test_canonical_removes_global_phase():
    z = cmath.exp(1j * 1.234)
    s = QubitState(z * math.sqrt(0.5), z * 1j * math.sqrt(0.5)).canonical()
    assert s.amp0.imag == pytest.approx(0.0, abs=1e-15)
    assert s.amp0.real > 0


def test_hadamard_pair_is_basis_zero():
    b = build_basis(0, 4)
    r = math.sqrt(0.5)
    assert b.plus_vec.amp0 == pytest.approx(r)
    assert b.plus_vec.amp1 == pytest.approx(r)
    assert b.minus_vec.amp1 == pytest.approx(-r)


def test_build_basis_validates():
    with pytest.raises(ValueError):
        build_basis(2, 4)  # only j in [0, delta/2)
    with pytest.raises(ValueError):
        build_basis(0, 3)  # odd family size


def test_born_known_value():
    """|<M(1)+|0+>|^2 at delta=4, against the 50-digit oracle."""
    state = build_basis(0, 4).plus_vec
    vec = build_basis(1, 4).plus_vec
    assert born_probability(state, vec) == pytest.approx(0.8535533905932737622, rel=1e-12)


CROSS_ANCHORS = [
    # (delta, j, k, sign_j, sign_k, expected)
    (8, 0, 3, PLUS, PLUS, 0.69134171618254488586),
    (8, 0, 3, PLUS, MINUS, 0.30865828381745511414),
    (6, 0, 2, PLUS, PLUS, 0.75),
    (4, 1, 0, PLUS, MINUS, 0.1464466094067262378),
]


@pytest.mark.parametrize("delta,j,k,sj,sk,want", CROSS_ANCHORS)
def test_cross_overlap_anchors(delta, j, k, sj, sk, want):
    assert cross_overlap_closed_form(j, k, sj, sk, delta) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("delta", [2, 4, 6, 8, 16, 64, 128])
def test_closed_form_matches_direct_inner_product(delta):
    """The cos((k-j)pi/delta) formula must agree with literal amplitudes
    for every pair of family states."""
    half = delta // 2
    vecs = {}
    for j in range(half):
        b = build_basis(j, delta)
        vecs[(j, PLUS)] = b.plus_vec
        vecs[(j, MINUS)] = b.minus_vec
    for (j, sj), vj in vecs.items():
        for (k, sk), vk in vecs.items():
            direct = born_probability(vj, vk)
            closed = cross_overlap_closed_form(j, k, sj, sk, delta)
            assert direct == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("delta", [2, 4, 6, 8, 16, 64, 128])
def test_family_orthonormal_and_bounded(delta):
    """Each basis is orthonormal; overlaps between distinct labeled states
    never exceed cos^2(pi/(2*delta))."""
    half = delta // 2
    bound = delta_bound(delta)
    labeled = []
    for j in range(half):
        b = build_basis(j, delta)
        for sign, vec in ((PLUS, b.plus_vec), (MINUS, b.minus_vec)):
            norm = abs(vec.amp0) ** 2 + abs(vec.amp1) ** 2
            assert norm == pytest.approx(1.0, abs=1e-12)
            labeled.append(((j, sign), vec))
        assert born_probability(b.plus_vec, b.minus_vec) == pytest.approx(0.0, abs=1e-12)
    for (kj, vj) in labeled:
        for (kk, vk) in labeled:
            if kj == kk:
                continue
            assert born_probability(vj, vk) <= bound + 1e-12


def test_delta_bound_values():
    assert delta_bound(2) == pytest.approx(0.5)
    assert delta_bound(4) == pytest.approx(0.8535533905932737622, rel=1e-12)
    with pytest.raises(ValueError):
        delta_bound(1)


BLOCH_ANCHORS = [
    # the four delta=4 family states, then the computational pair
    (lambda: build_basis(0, 4).plus_vec, (math.pi / 4, 0.0)),
    (lambda: build_basis(0, 4).minus_vec, (2 * math.pi - math.pi / 4, 0.0)),
    (lambda: build_basis(1, 4).plus_vec, (math.pi / 4, math.pi / 4)),
    (lambda: build_basis(1, 4).minus_vec, (2 * math.pi - math.pi / 4, math.pi / 4)),
    (lambda: KET0, (0.0, 0.0)),
    (lambda: KET1, (math.pi / 2, 0.0)),
]


@pytest.mark.parametrize("make_state,want", BLOCH_ANCHORS)
def test_bloch_angle_anchors(make_state, want):
    theta, phi = bloch_angles(make_state())
    assert theta == pytest.approx(want[0], abs=1e-12)
    assert phi == pytest.approx(want[1], abs=1e-12)


@given(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
)
@settings(max_examples=200)
def test_bloch_angles_reconstruct_state(re0, im0, re1, im1):
    """theta in [0, 2pi), phi in [0, pi), and cos(theta)|0> + sin(theta)
    e^{i phi}|1> matches the input up to global phase."""
    norm = math.sqrt(re0 * re0 + im0 * im0 + re1 * re1 + im1 * im1)
    if norm < 0.3:
        return
    s = QubitState(complex(re0, im0) / norm, complex(re1, im1) / norm)
    theta, phi = bloch_angles(s)
    assert 0.0 <= theta < 2 * math.pi
    assert 0.0 <= phi < math.pi
    rebuilt = QubitState(math.cos(theta), math.sin(theta) * cmath.exp(1j * phi))
    overlap = born_probability(rebuilt, s)
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_sampling_certain_outcomes_are_exact():
    """Probability-1 events never flip, whatever the draw says."""
    bit = build_basis(0, 4)  # careful: basis 0 is the Hadamard pair
    rng = RngStream(5, 0)
    for _ in range(10000):
        out = sample_measurement(KET_PLUS, bit, rng)
        assert out.sign == PLUS
    rng = RngStream(6, 0)
    for _ in range(10000):
        assert sample_measurement(KET_MINUS, bit, rng).sign == MINUS


def test_sampling_consumes_exactly_one_draw():
    """Stream position after a sample is independent of the state measured,
    so trial replay never depends on which outcomes were certain."""
    basis = build_basis(1, 4)
    a = RngStream(11, 2)
    b = RngStream(11, 2)
    sample_measurement(KET_PLUS, basis, a)  # generic probability
    sample_measurement(basis.plus_vec, basis, b)  # certainty path
    assert a.next_u32() == b.next_u32()


def test_sampling_matches_born_statistics():
    """Empirical plus-rate within 4 sigma of the 0.853553 Born weight."""
    state = build_basis(0, 4).plus_vec
    basis = build_basis(1, 4)
    p = 0.8535533905932737
    n = 200000
    rng = RngStream(20, 0)
    hits = sum(sample_measurement(state, basis, rng).sign == PLUS for _ in range(n))
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 4 * sigma


def test_outcome_sign_validation():
    with pytest.raises(ValueError):
        Outcome(0, 2)
    assert Outcome(1, MINUS).sign == MINUS


def test_measurement_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        raw = rng.normal(size=4)
        norm = math.sqrt((raw**2).sum())
        s = QubitState(complex(raw[0], raw[1]) / norm, complex(raw[2], raw[3]) / norm)
        b = build_basis(2, 8)
        total = born_probability(s, b.plus_vec) + born_probability(s, b.minus_vec)
        assert total == pytest.approx(1.0, abs=1e-12)
