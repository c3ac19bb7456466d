"""The columnar session engine: counter-indexed word blocks, their bits
and uniforms, chunk independence, exact agreement of the moment table and
the per-pulse cell codes with the single-pulse reference functions, the
cell frequencies against the table's exact law, dual-basis Eve's
categorical law, the disclosure draw, and memory bounded by one chunk."""

import hashlib
import math
import sys
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from conftest import cell_columns
from hypothesis import given, settings
from hypothesis import strategies as st
from test_attacks import DUAL_BASIS_INFERENCE_ACCURACY

from macroqkd import attacks, gaussian, protocol
from macroqkd.attacks import (
    AttackConfig,
    AttackKind,
    beamsplitter_tap,
    dual_basis_measure,
    eve_deferred_measure,
    intercept_resend,
    superior_channel,
    tap_arms,
)
from macroqkd.gaussian import SourceParams, alice_source, apply_loss
from macroqkd.photostats import (
    NOISELESS,
    Basis,
    DetectorModel,
    bob_error_vs_loss,
    decode_bit,
    detected_state,
    diff_number_moments,
    eve_tap_probability,
    outcome_normal,
    source_law,
)
from macroqkd.protocol import (
    SessionConfig,
    _dual_basis_law,
    _hypergeometric,
    _moment_table,
    _pulse_cells,
    alice_prepare,
    bob_measure,
    run_session,
)
from macroqkd.streams import (
    BLOCK_WORDS,
    LANE_DEFERRED,
    LANE_PULSE,
    LANE_SESSION,
    _key,
    derive_stream,
    pulse_block,
)

DESIGN_POINT = SourceParams(gain_G=10.0, n_total_amp=2e6, bit_amplitude_N=2460.0)
BASES = (Basis.VH, Basis.DIAG)


def make_config(kind: AttackKind, num_pulses: int = 1500, seed: int = 4242) -> SessionConfig:
    """Lossy channel and Bob's noisy detector below unit efficiency, so
    every step of the physics enters the table; Eve's detector is ideal."""
    return SessionConfig(
        source=DESIGN_POINT,
        channel_loss=0.3,
        detector=DetectorModel(noise_equivalent_number=250.0, quantum_efficiency=0.9),
        attack=AttackConfig(kind=kind, tap_fraction=0.4 if kind is AttackKind.BEAMSPLITTER_TAP else None),
        num_pulses=num_pulses,
        seed=seed,
    )


class ScriptedRng:
    """Stands in for a Generator: replays given integer and normal draws."""

    def __init__(self, ints, normals):
        self.ints = list(ints)
        self.normals = list(normals)

    def integers(self, low, high):
        return self.ints.pop(0)

    def standard_normal(self, size=None):
        if size is None:
            return self.normals.pop(0)
        return np.array([self.normals.pop(0) for _ in range(size)])

    def exhausted(self) -> bool:
        return not self.ints and not self.normals


def normal_of(top53: int) -> float:
    """The standard normal a raw word w with w >> 11 == top53 stands for:
    Phi^-1 of its uniform (top53 + 0.5) 2^-53."""
    return NormalDist().inv_cdf((top53 + 0.5) * 2**-53)


# ----------------------------------------------------------------- blocks


def test_advanced_block_equals_slice_of_whole_range():
    whole = pulse_block(77, LANE_PULSE, 0, 300)
    assert whole.shape == (300, BLOCK_WORDS) and whole.dtype == np.uint64
    for lo, hi in ((0, 1), (1, 8), (137, 300), (299, 300), (5, 5)):
        np.testing.assert_array_equal(pulse_block(77, LANE_PULSE, lo, hi), whole[lo:hi])
    # lanes and seeds give unrelated words
    assert not np.array_equal(pulse_block(77, LANE_DEFERRED, 0, 300), whole)
    assert not np.array_equal(pulse_block(78, LANE_PULSE, 0, 300), whole)


def test_derived_stream_is_philox_keyed_by_seed_lane_index():
    # derive_stream is Philox(key=...) under the documented (seed, lane,
    # index) key layout, word for word
    for seed, lane, index in ((0, 0, 0), (31, LANE_PULSE, 7), (-5, LANE_SESSION, 2**48 - 1),
                              (2**64 + 9, LANE_DEFERRED, 12345)):
        np.testing.assert_array_equal(
            derive_stream(seed, lane, index).bit_generator.random_raw(12),
            np.random.Philox(key=_key(seed, lane, index)).random_raw(12),
        )


def _splitmix_word(seed: int, lane: int, pulse: int, word: int) -> int:
    """The streams docstring's word, in Python ints: SplitMix64's output
    function of key(seed, lane) + (3 pulse + word + 1) gamma mod 2^64, with
    key(seed, lane) = gamma (mix64(seed mod 2^64) + lane 2^61)."""
    mask, gamma = 2**64 - 1, 0x9E3779B97F4A7C15

    def mix64(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    key = gamma * (mix64(seed % 2**64) + lane * 2**61) % 2**64
    return mix64((key + (3 * pulse + word + 1) * gamma) & mask)


def test_pulse_block_is_the_documented_counter_hash():
    for seed, lane, lo, hi in ((0, LANE_PULSE, 0, 1), (31, LANE_PULSE, 3, 9),
                               (-5, LANE_SESSION, 40, 41), (2**64 + 9, LANE_DEFERRED, 17, 50),
                               (7, 7, 2**48 - 3, 2**48)):
        expected = [[_splitmix_word(seed, lane, i, w) for w in range(BLOCK_WORDS)] for i in range(lo, hi)]
        assert pulse_block(seed, lane, lo, hi).tolist() == expected
    # seed 0's lane-0 stream is the SplitMix64 sequence seeded with 0
    assert pulse_block(0, LANE_PULSE, 0, 1)[0, 0] == 0xE220A8397B1DCDAF


def test_block_rejects_bad_range():
    with pytest.raises(ValueError):
        pulse_block(1, LANE_PULSE, 5, 4)
    with pytest.raises(ValueError):
        pulse_block(1, 8, 0, 4)


def test_block_bits_balanced_and_normals_standard():
    pulses = 500_000
    words = pulse_block(2718, LANE_PULSE, 0, pulses)
    for shift in (63, 62, 61, 60):  # the four basis and bit draws of word 0
        share = float(np.mean(words[:, 0] >> shift & 1))
        assert abs(share - 0.5) < 5 * math.sqrt(0.25 / pulses), shift
    for w in (1, 2):  # Bob's and Eve's uniforms, the sources of every normal outcome
        u = ((words[:, w] >> 11) + 0.5) * 2.0**-53
        assert abs(float(np.mean(u)) - 0.5) < 5 * math.sqrt(1 / 12 / pulses), w
        assert abs(float(np.mean(u < 0.1)) - 0.1) < 5 * math.sqrt(0.09 / pulses), w
    # derandomized checks of the counter hash: the words are fixed, and each
    # bound sits where a uniform stream exceeds it with probability 1e-6
    from scipy.stats import chi2

    def chi_square(counts):
        expected = counts.sum() / len(counts)
        return float(((counts - expected) ** 2).sum() / expected)

    def uniforms(block):
        return ((block >> 11) + 0.5) * 2.0**-53

    nibbles = np.bincount((words[:, 0] >> 60).astype(np.intp), minlength=16)
    assert chi_square(nibbles) < chi2.isf(1e-6, 15), nibbles
    u = uniforms(words)
    for w in range(BLOCK_WORDS):
        deciles = np.bincount((u[:, w] * 10).astype(np.intp), minlength=10)
        assert chi_square(deciles) < chi2.isf(1e-6, 9), (w, deciles)
    # correlation of pairs of uniforms, each |r| sqrt(n) against a two-sided 1e-6 normal bound
    pairs = {f"lag 1, word {w}": (u[:-1, w], u[1:, w]) for w in range(BLOCK_WORDS)}
    pairs |= {f"words {a} and {b}": (u[:, a], u[:, b]) for a, b in ((0, 1), (0, 2), (1, 2))}
    for name, seed, lane in (("seed", 2719, LANE_PULSE), ("lane", 2718, LANE_SESSION)):
        other = uniforms(pulse_block(seed, lane, 0, pulses))
        pairs |= {f"{name}, word {w}": (u[:, w], other[:, w]) for w in range(BLOCK_WORDS)}
    bound = NormalDist().inv_cdf(1.0 - 0.5e-6)
    for name, (a, b) in pairs.items():
        assert abs(np.corrcoef(a, b)[0, 1]) * math.sqrt(len(a)) < bound, name


# ---------------------------------------------------------------- chunking


@pytest.mark.parametrize("kind", list(AttackKind))
def test_columns_do_not_depend_on_chunk_size(kind):
    config = make_config(kind)
    n = config.num_pulses
    table = _moment_table(config)
    runs = []
    for chunk in (1, 7, protocol._CHUNK, 1 << 16):
        parts = [_pulse_cells(config, table, lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
        runs.append(np.concatenate(parts))
    for other in runs[1:]:
        np.testing.assert_array_equal(other, runs[0])


@pytest.mark.parametrize("kind", list(AttackKind))
def test_report_does_not_depend_on_chunk_size(kind, monkeypatch):
    config = make_config(kind, num_pulses=700)
    reports = []
    for chunk in (1, 7, protocol._CHUNK, 1 << 16):
        monkeypatch.setattr(protocol, "_CHUNK", chunk)
        reports.append(run_session(config))
    assert all(report == reports[0] for report in reports[1:])


# ------------------------------------------------- agreement with reference


def _sent_state(config: SessionConfig, bit: int, basis: Basis):
    """The pulse Bob receives for a launched (bit, basis), built through the
    single-pulse reference functions."""
    kind = config.attack.kind
    state = alice_source(config.source, bit, basis)
    if kind is AttackKind.BEAMSPLITTER_TAP:
        rng = ScriptedRng([0], [0.0])
        state, _, _ = beamsplitter_tap(state, config.attack.tap_fraction, rng)
    elif kind is AttackKind.SUPERIOR_CHANNEL:
        return superior_channel(state)[0]  # lossless substitute channel
    return apply_loss(state, config.channel_loss)


def _probes(threshold: int) -> list[int]:
    """53-bit uniforms near both ends of the range, in its middle and 2^20
    (a 1.2e-10 share) either side of a threshold. The top one is 2^53 - 2:
    (2^53 - 1) + 0.5 rounds to 2^53 in floating point, where Phi^-1 is
    infinite. A fixed point closer than 2^20 to the threshold is left out:
    a zero-mean cell's threshold is 2^52 exactly, and there the
    reference's outcome has the sign of its mean's rounding residue."""
    points = (0, 1 << 51, 1 << 52, 3 << 51, (1 << 53) - 2)
    near = (threshold - (1 << 20), threshold + (1 << 20))
    far = [p for p in points if abs(p - threshold) >= 1 << 20]
    return far + [p for p in near if 0 <= p < (1 << 53) - 1]


def _engine_codes(config, table, monkeypatch, bit, basis, tops):
    """Dual-basis Eve's outcome codes 2 * basis + bit as the engine decodes
    them from pulses launched as (bit, basis) whose word 2 carries the
    given 53-bit uniforms."""
    words = np.zeros((len(tops), BLOCK_WORDS), dtype=np.uint64)
    words[:, 0] = bit << 63 | basis << 62
    words[:, 2] = np.array(tops, dtype=np.uint64) << np.uint64(11)
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "pulse_block", lambda *_: words)
        cells = _pulse_cells(config, table, 0, len(tops))
    return (cells & 3).tolist()  # Eve's basis and bit, the cell's two low bits


def _reference_arms(alice):
    """(mean, sigma) of the V/H and diagonal arms dual_basis_measure samples
    from, read off its outcomes at the normals 0 and 1."""
    at_zero = dual_basis_measure(alice, ScriptedRng([], [0.0, 0.0]), DESIGN_POINT)
    at_one = dual_basis_measure(alice, ScriptedRng([], [1.0, 1.0]), DESIGN_POINT)
    return [(at_zero[a], at_one[a] - at_zero[a]) for a in (1, 2)]


def _thinned_arms(source, t: float) -> np.ndarray:
    """(mean, sigma) [bit, basis, arm basis] of Alice's pulses thinned to
    transmission t, from the four source scalars: mean +-t N in the launch
    basis and 0 in the other, variance t^2 V + t (1 - t) N_T."""
    n, v_match, v_mis, n_total = source_law(source)
    arms = np.empty((2, 2, 2, 2))
    for bit, b, a in np.ndindex(2, 2, 2):
        mean = t * n * (2 * bit - 1) if a == b else 0.0
        var = t * t * (v_match if a == b else v_mis) + t * (1.0 - t) * n_total
        arms[bit, b, a] = mean, math.sqrt(var)
    return arms


@pytest.mark.parametrize("kind", list(AttackKind))
def test_table_entries_equal_reference_sampling(kind, monkeypatch):
    """Each sign threshold splits the uniforms where the reference's
    outcome, fed the normal of the uniform, changes sign. Each dual-basis
    cell's cumulative thresholds are the law of the reference's arms, and
    the engine decodes every uniform to the category whose interval holds
    it."""
    config = make_config(kind)
    table = _moment_table(config)

    def assert_splits(threshold, measure):
        for top53 in _probes(int(threshold)):
            assert decode_bit(measure(normal_of(top53))) == (top53 >= threshold), top53

    for bit in (0, 1):
        for b, basis in enumerate(BASES):
            alice = alice_source(config.source, bit, basis)
            sent = _sent_state(config, bit, basis)
            for m in (0, 1):
                assert_splits(
                    table.bob[bit, b, m],
                    lambda z: bob_measure(sent, config, ScriptedRng([m], [z]))[1],
                )
            if kind is AttackKind.INTERCEPT_RESEND:
                for e in (0, 1):
                    assert_splits(
                        table.eve[bit, b, e],
                        lambda z: intercept_resend(alice, ScriptedRng([e], [z]), config.source)[2],
                    )
            elif kind is AttackKind.BEAMSPLITTER_TAP:
                eta_e = config.attack.tap_fraction
                for e in (0, 1):
                    assert_splits(
                        table.eve[bit, b, e],
                        lambda z: beamsplitter_tap(alice, eta_e, ScriptedRng([e], [z]))[2],
                    )
            elif kind is AttackKind.DUAL_BASIS:
                cumulative = table.eve[bit, b].astype(int)
                assert 0 < cumulative[0] < cumulative[1] < cumulative[2] < 1 << 53
                # the table's arms are the source law at t = 0.5; the reference
                # builds the split pulse, whose zero means are rounding residues
                arms = _thinned_arms(config.source, 0.5)[bit, b]
                floor = 1e-12 * (0.5 * config.source.n_total_amp + 1.0)
                np.testing.assert_allclose(arms, _reference_arms(alice), rtol=1e-12, atol=floor)
                expected = np.cumsum(_dual_basis_law(arms)[:3]) * 2.0**53
                assert np.all(np.abs(cumulative - expected) <= 2), (cumulative, expected)
                for k, c in enumerate(cumulative, start=1):
                    assert _engine_codes(config, table, monkeypatch, bit, b, [c - 1, c]) == [k - 1, k]
                    tops = _probes(c)
                    held = np.searchsorted(cumulative, tops, side="right").tolist()
                    assert _engine_codes(config, table, monkeypatch, bit, b, tops) == held, c
            elif kind is AttackKind.SUPERIOR_CHANNEL:
                _, stored = superior_channel(alice)

                def deferred(z):
                    monkeypatch.setattr(attacks, "derive_stream", lambda *_: ScriptedRng([], [z]))
                    return eve_deferred_measure(stored, basis, config.seed, 0)

                # she measures in Alice's basis; the other eve_basis cell is never read
                assert_splits(table.eve[bit, b, b], deferred)


def _reference_pulse(config, i, words, cols, monkeypatch):
    """Pulse i through the single-pulse reference functions, fed the draws
    the documented word layout assigns to it: Alice's (bit, basis), Bob's
    (basis, raw) and Eve's (basis, bit), or None for Eve without an attack.
    Dual-basis Eve's (basis, bit) is one categorical draw, not the
    reference's two arm normals, so the pulse she re-prepares is built from
    the engine's decoded cells."""
    kind = config.attack.kind
    head = int(words[i, 0])
    bit, basis, eve_basis, bob_basis = (head >> s & 1 for s in (63, 62, 61, 60))
    z_bob, z_eve = (normal_of(int(w) >> 11) for w in words[i, 1:3])
    if kind in (AttackKind.INTERCEPT_RESEND, AttackKind.BEAMSPLITTER_TAP):
        rng = ScriptedRng([bit, basis, eve_basis, bob_basis], [z_eve, z_bob])
    else:
        rng = ScriptedRng([bit, basis, bob_basis], [z_bob])
    bit, basis, state = alice_prepare(config, rng)
    eve = None
    if kind is AttackKind.INTERCEPT_RESEND:
        state, eve_basis, raw = intercept_resend(state, rng, config.source)
        eve = (eve_basis, decode_bit(raw))
    elif kind is AttackKind.BEAMSPLITTER_TAP:
        state, eve_basis, raw = beamsplitter_tap(state, config.attack.tap_fraction, rng)
        eve = (eve_basis, decode_bit(raw))
    elif kind is AttackKind.DUAL_BASIS:
        eve = (BASES[cols["eve_basis"][i]], int(cols["eve_bit"][i]))
        state = alice_source(config.source, eve[1], eve[0])  # Eve re-prepares
    elif kind is AttackKind.SUPERIOR_CHANNEL:
        state, stored = superior_channel(state)
    if kind is not AttackKind.SUPERIOR_CHANNEL:
        state = apply_loss(state, config.channel_loss)
    bob = bob_measure(state, config, rng)
    assert rng.exhausted()
    if kind is AttackKind.SUPERIOR_CHANNEL:

        def deferred_stream(seed, lane, index):
            assert (seed, lane, index) == (config.seed, LANE_DEFERRED, i)
            return ScriptedRng([], [z_eve])

        monkeypatch.setattr(attacks, "derive_stream", deferred_stream)
        eve = (basis, decode_bit(eve_deferred_measure(stored, basis, config.seed, i)))
    return (bit, basis), bob, eve


@pytest.mark.parametrize("kind", list(AttackKind))
def test_columns_equal_single_pulse_reference(kind, monkeypatch):
    config = make_config(kind, num_pulses=300)
    n = config.num_pulses
    table = _moment_table(config)
    cols = cell_columns(_pulse_cells(config, table, 0, n))
    words = pulse_block(config.seed, LANE_PULSE, 0, n)
    for i in range(n):
        (bit, basis), (bob_basis, bob_raw), eve = _reference_pulse(config, i, words, cols, monkeypatch)
        assert cols["alice_bit"][i] == bit
        assert BASES[cols["alice_basis"][i]] is basis
        assert BASES[cols["bob_basis"][i]] is bob_basis
        assert cols["bob_bit"][i] == decode_bit(bob_raw)
        if eve is None:
            assert cols["eve_basis"][i] == cols["eve_bit"][i] == 0
            continue
        eve_basis, eve_bit = eve
        assert BASES[cols["eve_basis"][i]] is eve_basis
        assert cols["eve_bit"][i] == eve_bit
        if kind is AttackKind.DUAL_BASIS:
            # the category of word 2 among the cell's cumulative thresholds
            code = np.searchsorted(table.eve[bit, BASES.index(basis)], words[i, 2] >> 11, side="right")
            assert 2 * BASES.index(eve_basis) + eve_bit == code


# ------------------------------------------------------- cell frequencies


def _cell_law(config, table):
    """Exact probability of every 6-bit cell code: 1/2 for each random bit
    or basis, threshold / 2^53 for a sign outcome of 0, and dual-basis Eve's
    categories between her cumulative thresholds."""
    kind = config.attack.kind
    alice_bit, alice_basis, bob_basis, bob_bit, eve_basis, eve_bit = cell_columns(np.arange(64)).values()

    def sign(thresholds, bit):
        zero = thresholds / 2.0**53
        return np.where(bit == 1, 1.0 - zero, zero)

    if kind is AttackKind.NONE:
        eve = ((eve_basis == 0) & (eve_bit == 0)) * 1.0
    elif kind is AttackKind.DUAL_BASIS:
        edges = np.concatenate((np.zeros((2, 2, 1)), table.eve / 2.0**53, np.ones((2, 2, 1))), -1)
        eve = np.diff(edges)[alice_bit, alice_basis, 2 * eve_basis + eve_bit]
    else:
        # superior-channel Eve measures in Alice's basis, the others in a random one
        chosen = (eve_basis == alice_basis) * 1.0 if kind is AttackKind.SUPERIOR_CHANNEL else 0.5
        eve = chosen * sign(table.eve[alice_bit, alice_basis, eve_basis], eve_bit)
    resent = kind in (AttackKind.INTERCEPT_RESEND, AttackKind.DUAL_BASIS)
    sent = (eve_bit, eve_basis) if resent else (alice_bit, alice_basis)
    return eve * sign(table.bob[(*sent, bob_basis)], bob_bit) / 8.0


@pytest.mark.parametrize("kind", list(AttackKind))
def test_cell_counts_match_the_table_law(kind):
    """Every cell's count within 5 sigma of its exact expectation, and none
    at all in a cell the law excludes: Eve's cells without an attack, and
    superior-channel Eve measuring in a basis other than Alice's."""
    config = make_config(kind, num_pulses=1 << 20, seed=2002)
    n, table = config.num_pulses, _moment_table(config)
    chunks = (_pulse_cells(config, table, lo, lo + (1 << 16)) for lo in range(0, n, 1 << 16))
    counts = sum(np.bincount(cells, minlength=64) for cells in chunks)
    law = _cell_law(config, table)
    assert abs(law.sum() - 1.0) < 1e-12
    possible = law > 0.0
    assert np.all(counts[~possible] == 0), np.flatnonzero(counts * ~possible)
    p = law[possible]
    z = (counts[possible] - n * p) / np.sqrt(n * p * (1.0 - p))
    assert np.all(np.abs(z) < 5.0), (np.flatnonzero(possible), z)
    if kind is AttackKind.NONE:
        assert possible.sum() == 16
    elif kind is AttackKind.SUPERIOR_CHANNEL:
        assert possible.sum() == 32


def _plan_law(table):
    """Exact probability of every cell code read off the table's draw plan
    alone: 1/16 for each head nibble, then for each draw the share of the
    uniforms between consecutive thresholds of the code so far."""
    law, codes = np.zeros(64), np.arange(64)
    np.add.at(law, table.head, 1.0 / 16.0)
    for _, shift, thresholds in table.draws:
        edges = np.concatenate((np.zeros((1, 64)), thresholds / 2.0**53, np.ones((1, 64))))
        drawn = np.zeros(64)
        for reached, share in enumerate(np.diff(edges, axis=0)):
            np.add.at(drawn, codes | reached << shift, law * share)
        law = drawn
    return law


@pytest.mark.parametrize(
    "kind, channel_loss, tap_fraction",
    [
        (kind, loss, tap)
        for kind in AttackKind
        for loss in (0.0, 0.3)
        for tap in ((0.2, 0.7) if kind is AttackKind.BEAMSPLITTER_TAP else (None,))
    ],
)
def test_draw_plan_law_equals_each_attacks_rules(kind, channel_loss, tap_fraction):
    """The plan _pulse_cells follows, read without the attack kind, gives
    exactly the law _cell_law states per attack."""
    config = SessionConfig(
        source=DESIGN_POINT,
        channel_loss=channel_loss,
        detector=DetectorModel(noise_equivalent_number=250.0, quantum_efficiency=0.9),
        attack=AttackConfig(kind=kind, tap_fraction=tap_fraction),
    )
    table = _moment_table(config)
    np.testing.assert_array_equal(_plan_law(table), _cell_law(config, table))


def _matching_basis_errors(thresholds):
    """Error rates [bit, basis] of the sign cells whose measurement basis is
    the launch basis: a sent 1 errs below its threshold, a sent 0 at or above."""
    zero = np.diagonal(thresholds, axis1=1, axis2=2) / 2.0**53
    return np.stack((1.0 - zero[0], zero[1]))


@pytest.mark.parametrize(
    "kind, tap_fraction",
    [(kind, None) for kind in AttackKind if kind is not AttackKind.BEAMSPLITTER_TAP]
    + [(AttackKind.BEAMSPLITTER_TAP, tap) for tap in (0.4, 0.7)],
)
def test_matching_basis_cells_equal_the_closed_form_curves(kind, tap_fraction):
    """Bob's matching-basis cells give the fig2 error rate at the loss his
    pulse has seen, and ideal Eve's give the fig3 accuracy at the fraction
    she holds: the whole pulse under intercept-resend, the tap, or half."""
    for channel_loss in (0.0, 0.3, 0.5):
        for detector in (NOISELESS, DetectorModel(250.0, 0.9), DetectorModel(120.0, 0.7)):
            config = SessionConfig(
                source=DESIGN_POINT,
                channel_loss=channel_loss,
                detector=detector,
                attack=AttackConfig(kind=kind, tap_fraction=tap_fraction),
            )
            table = _moment_table(config)
            if kind is AttackKind.SUPERIOR_CHANNEL:
                bob_loss, eve_share = 0.5, 0.5
            elif kind is AttackKind.BEAMSPLITTER_TAP:
                bob_loss, eve_share = 1.0 - (1.0 - channel_loss) * (1.0 - tap_fraction), tap_fraction
            else:
                bob_loss, eve_share = channel_loss, 1.0 if kind is AttackKind.INTERCEPT_RESEND else None
            expected = bob_error_vs_loss(DESIGN_POINT, bob_loss, detector)
            assert np.max(np.abs(_matching_basis_errors(table.bob) - expected)) <= 1e-12
            if eve_share is not None:
                accuracy = 1.0 - _matching_basis_errors(table.eve)
                assert np.max(np.abs(accuracy - eve_tap_probability(DESIGN_POINT, eve_share))) <= 1e-12


@pytest.mark.parametrize("kind", list(AttackKind))
def test_table_depends_only_on_bit_basis_match_and_transmission(kind, built_states):
    """Every pulse Bob or Eve measures is Alice's thinned to a transmission,
    so a sign cell is fixed by its bit, whether the measured basis is the
    launch basis, and that transmission: a mismatched cell has mean 0 and
    threshold 2^52 exactly, the two matching cells are equal, and Eve's
    cells are those of a no-attack session with an ideal detector behind a
    channel that transmits her share. The table builds no state: it reads
    the closed-form source law (building Alice's pulse takes two)."""
    config = make_config(kind)
    table = _moment_table(config)
    sign_tables = [table.bob] if kind in (AttackKind.NONE, AttackKind.DUAL_BASIS) else [table.bob, table.eve]
    for thresholds in sign_tables:
        assert np.all(thresholds[:, 0, 1] == 1 << 52) and np.all(thresholds[:, 1, 0] == 1 << 52), thresholds
        np.testing.assert_array_equal(thresholds[:, 0, 0], thresholds[:, 1, 1])
    tap = config.attack.tap_fraction
    eve_share = {AttackKind.INTERCEPT_RESEND: 1.0, AttackKind.BEAMSPLITTER_TAP: tap, AttackKind.SUPERIOR_CHANNEL: 0.5}
    if kind in eve_share:
        ideal = SessionConfig(source=config.source, channel_loss=1.0 - eve_share[kind], detector=NOISELESS)
        np.testing.assert_array_equal(table.eve, _moment_table(ideal).bob)

    counts = []
    for build in (lambda: alice_source(config.source, 1, Basis.VH), lambda: _moment_table(config)):
        gaussian._alice_source_cached.cache_clear()  # start from a cold source
        built_states.clear()
        build()
        counts.append(len(built_states))
    assert counts == [2, 0], counts


def _histogram_grid(kind):
    """The 48 sessions of one attack kind on the replay grid: losses 0, 0.3
    and 0.5, four seeds across the 64-bit range, and 1 to 200 000 pulses;
    Bob's detector is noisy and below unit efficiency, and the tap is 0.4."""
    for channel_loss in (0.0, 0.3, 0.5):
        for seed in (0, 7, 12345, 2**64 - 1):
            for num_pulses in (1, 1000, 2**16 + 1, 200_000):
                yield SessionConfig(
                    source=DESIGN_POINT,
                    channel_loss=channel_loss,
                    detector=DetectorModel(noise_equivalent_number=120.0, quantum_efficiency=0.7),
                    attack=AttackConfig(kind, 0.4 if kind is AttackKind.BEAMSPLITTER_TAP else None),
                    num_pulses=num_pulses,
                    seed=seed,
                )


# sha256 of the little-endian int64 64-bin cell histograms of _histogram_grid
CELL_HISTOGRAM_SHA256 = {
    AttackKind.NONE: "a464396c6c473a549bcf315d4eb85cb9a3f214073f3c420308090c20dd124b7e",
    AttackKind.INTERCEPT_RESEND: "d6f17376f50898d131dbf4eb665ac0c1c37f95a4299b5de105c145c894112329",
    AttackKind.BEAMSPLITTER_TAP: "d5d651c1defa42bf18c94d2a7d62051b78962afb27c009a522d61ad8f5aa05c4",
    AttackKind.DUAL_BASIS: "7fda2910768355c5d055c566d4df798f37bdaac88dc17fce00d0664e40d66b09",
    AttackKind.SUPERIOR_CHANNEL: "9e6b2097dab6797224c39def9bcb1b0208cdee1c0169c6eae264ac307ec7fef4",
}


@pytest.mark.parametrize("kind", list(AttackKind))
def test_cell_histograms_reproduce_their_digests(kind):
    """The cell histograms of the replay grid are frozen: they read only the
    pulse words and the table's thresholds, so a change to either
    shows here, while a threshold moving by a few units of 2^-53 does not."""
    digest = hashlib.sha256()
    for config in _histogram_grid(kind):
        cells = _pulse_cells(config, _moment_table(config), 0, config.num_pulses)
        digest.update(np.bincount(cells, minlength=64).astype("<i8").tobytes())
    assert digest.hexdigest() == CELL_HISTOGRAM_SHA256[kind]


# ------------------------------------------------------ dual-basis Eve's law


def _eve_arms(source, detector):
    """The reference's (mean, sigma) of Eve's V/H and diagonal arms per
    launched [bit, basis]: outcome_normal on the 50/50 tap of each pulse."""
    arms = np.empty((2, 2, 2, 2))
    for bit in (0, 1):
        for b, basis in enumerate(BASES):
            kept = detected_state(tap_arms(alice_source(source, bit, basis), 0.5)[1], detector)
            for a, arm in enumerate(BASES):
                arms[bit, b, a] = outcome_normal(diff_number_moments(kept, arm), detector)
    return arms


@settings(max_examples=60, deadline=None)
@given(
    gain=st.floats(1.05, 1e4),
    log_total=st.floats(0.0, 12.0),
    frac=st.floats(1e-3, 0.999),
    nen=st.floats(0.0, 300.0),
    qe=st.floats(0.05, 1.0),
)
def test_dual_basis_law_converged_and_normalized(gain, log_total, frac, nen, qe):
    n_total = 10.0**log_total
    source = SourceParams(gain, n_total, frac * n_total / gain)
    arms = _eve_arms(source, DetectorModel(noise_equivalent_number=nen, quantum_efficiency=qe))
    law = _dual_basis_law(arms)
    assert np.all(law >= 0.0)
    assert np.max(np.abs(law.sum(-1) - 1.0)) <= 1e-14
    assert np.max(np.abs(law - _dual_basis_law(arms, nodes=320))) <= 1e-12


# arms [V/H, diagonal] of (mean, sigma): the wider arm off zero, either arm
# the narrower, the narrower's zero inside and beyond 12 sigma, equal widths
SYNTHETIC_ARMS = [
    [[3000.0, 1000.0], [-420.0, 100.0]],
    [[-450.0, 100.0], [2500.0, 3000.0]],
    [[30.0, 1.0], [5.0, 2.0]],
    [[0.0, 1.0], [0.0, 1.0]],
    [[-7.0, 1.0], [3.0, 104.0]],
]


@pytest.mark.parametrize("arms", SYNTHETIC_ARMS)
def test_dual_basis_law_equals_adaptive_quadrature(arms):
    """Each outcome integrated over its own trusted arm by adaptive
    quadrature, split at zero: P(trust X, sign s) = integral over s x > 0
    of pdf_X(x) P(|Y| >= |x|)."""
    from scipy.integrate import quad

    expected = []
    for trusted in (0, 1):
        (m, s), (m_o, s_o) = arms[trusted], arms[1 - trusted]

        def integrand(x):
            untrusted_wider = 0.5 * (
                math.erfc((abs(x) - m_o) / (s_o * math.sqrt(2.0)))
                + math.erfc((abs(x) + m_o) / (s_o * math.sqrt(2.0)))
            )
            density = math.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
            return density * untrusted_wider

        lo, hi = m - 40.0 * s, m + 40.0 * s
        for a, b in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi)):
            expected.append(quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0] if a < b else 0.0)
    law = _dual_basis_law(np.array(arms))
    assert np.max(np.abs(law - expected)) <= 1e-13, (law, expected)


# the 80-point rule's smallest and largest half-weights, from a 40-digit
# mpmath Newton solve of P_80
GAUSS_LEGENDRE_80_EXTREME_WEIGHTS = (5.72475001593470767272086e-4, 1.95089068281533274056402e-2)


@pytest.mark.parametrize("nodes", [80, 320])
def test_gauss_legendre_rule_is_symmetric_and_exact(nodes):
    x, weights = protocol._gauss_legendre(nodes)
    assert not (x.flags.writeable or weights.flags.writeable)
    assert np.all(np.diff(x) > 0.0) and np.array_equal(x, -x[::-1])
    # exact for polynomials of degree 2 nodes - 1: the half-weights integrate
    # x^2k over [-1, 1] to 1 / (2k + 1)
    for k in range(nodes):
        assert abs(weights @ x ** (2 * k) - 1.0 / (2 * k + 1)) <= 1e-15 * nodes, k
    if nodes == 80:
        np.testing.assert_allclose((weights.min(), weights.max()), GAUSS_LEGENDRE_80_EXTREME_WEIGHTS, rtol=2e-14)


def test_dual_basis_session_calls_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the session path called an eigensolver")

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    protocol._gauss_legendre.cache_clear()  # build the rule under the patch
    config = make_config(AttackKind.DUAL_BASIS)
    _moment_table(config)
    run_session(config)


def test_dual_basis_table_holds_frozen_basis_accuracy():
    # lossless, noiseless Eve at the design point: she trusts the right arm
    # (codes 0, 1 for V/H pulses, 2, 3 for diagonal ones) with the
    # probability frozen from scipy quadrature
    config = SessionConfig(source=DESIGN_POINT, attack=AttackConfig(kind=AttackKind.DUAL_BASIS))
    cumulative = _moment_table(config).eve / 2.0**53  # [bit, basis, threshold]
    right = (cumulative[:, 0, 1] + 1.0 - cumulative[:, 1, 1]) / 2.0
    assert np.all(np.abs(right - DUAL_BASIS_INFERENCE_ACCURACY) < 1e-9), right


@pytest.mark.parametrize(
    "make_arms",
    [
        lambda: _eve_arms(DESIGN_POINT, NOISELESS),
        lambda: _eve_arms(DESIGN_POINT, DetectorModel(noise_equivalent_number=250.0, quantum_efficiency=0.6)),
        lambda: _eve_arms(
            SourceParams(3.0, 5e4, 800.0), DetectorModel(noise_equivalent_number=40.0, quantum_efficiency=0.9)
        ),
        lambda: np.array(SYNTHETIC_ARMS[:2]),
    ],
    ids=["noiseless", "read_noise_qe_0.6", "small_gain_noisy", "synthetic"],
)
def test_dual_basis_law_matches_monte_carlo(make_arms):
    """The categorical law against a vectorized Monte Carlo of the
    reference rule: independent normal arms, V/H trusted when |X| <= |Y|,
    the bit the sign of the trusted arm; every outcome within 5 sigma."""
    n = 1_000_000
    z = derive_stream(1969, LANE_SESSION, 3).standard_normal((2, n))
    arms = make_arms()
    law = _dual_basis_law(arms)
    for cell in np.ndindex(arms.shape[:-2]):
        (m_vh, s_vh), (m_dg, s_dg) = arms[cell]
        x, y = m_vh + s_vh * z[0], m_dg + s_dg * z[1]
        vh = np.abs(x) <= np.abs(y)
        code = np.where(vh, 0, 2) + (np.where(vh, x, y) >= 0.0)
        share = np.bincount(code, minlength=4) / n
        p = law[cell]
        assert np.all(np.abs(share - p) <= 5.0 * np.sqrt(p * (1.0 - p) / n)), (cell, share, p)


# ------------------------------------------------------------- disclosure


def _grid_counts(good: int, bad: int, k: int, points: int) -> np.ndarray:
    """How many of the uniforms (j + 0.5) / points, j < points, the sampler
    sends to each outcome 0..k."""
    counts = np.zeros(k + 1, dtype=np.int64)
    for j in range(points):
        counts[_hypergeometric(good, bad, k, (j + 0.5) / points)] += 1
    return counts


@pytest.mark.parametrize(
    "good, bad, k",
    [(0, 0, 0), (5, 7, 0), (5, 7, 12), (0, 9, 4), (9, 0, 4), (1, 1, 1), (5, 7, 4), (3, 900, 800),
     (40, 2000, 300), (700, 300, 999), (2, 1, 2)],
)
def test_hypergeometric_sampler_inverts_the_exact_law(good, bad, k):
    """Each outcome x takes an interval of u of length p(x), so a grid of G
    uniforms sends G p(x) +- 1 of them to x, and none off the support; k = 0,
    k = good + bad, good = 0 and bad = 0 included."""
    points = 10_000
    counts = _grid_counts(good, bad, k, points)
    total = math.comb(good + bad, k)
    exact = np.array([math.comb(good, x) * math.comb(bad, k - x) / total for x in range(k + 1)])
    assert counts.sum() == points
    assert np.all(counts[exact == 0.0] == 0), counts
    assert np.all(np.abs(counts - points * exact) <= 1.0), (counts, points * exact)


@pytest.mark.parametrize("good, bad, k, points", [(3_000, 97_000, 3_000, 4_000), (60_000, 40_000, 500, 4_000)])
def test_hypergeometric_sampler_matches_scipy_at_scale(good, bad, k, points):
    from scipy.stats import hypergeom

    counts = _grid_counts(good, bad, k, points)
    exact = hypergeom(good + bad, good, k).pmf(np.arange(k + 1))
    assert counts.sum() == points
    assert np.all(np.abs(counts - points * exact) <= 1.0)


@pytest.mark.parametrize(
    "good, bad, k, p_mode",
    [
        (2_500, 7_500, 1_000, math.comb(2_500, 250) * math.comb(7_500, 750) / math.comb(10_000, 1_000)),
        (10**6, 4 * 10**8, 5 * 10**7, 0.0012090883420707274793),  # mpmath loggamma at x = 124688, 50 digits
    ],
)
def test_hypergeometric_mode_takes_its_probability(good, bad, k, p_mode):
    """The mode is spent first, so exactly the uniforms below p(mode) return
    it; bisection finds that edge to 2^-53 and checks the normalization at
    the scale of a 10^9-pulse session's disclosure, which no u-grid resolves."""
    mode = (k + 1) * (good + 1) // (good + bad + 2)
    below, above = 0.0, 1.0
    while above - below > 2.0**-53:
        middle = (below + above) / 2.0
        below, above = (middle, above) if _hypergeometric(good, bad, k, middle) == mode else (below, middle)
    assert abs(below / p_mode - 1.0) < 1e-13, below


@pytest.mark.parametrize("kind", list(AttackKind))
def test_session_discloses_hypergeometric_errors_of_its_counts(kind):
    config = make_config(kind, num_pulses=5000)
    cols = cell_columns(_pulse_cells(config, _moment_table(config), 0, config.num_pulses))
    kept = cols["alice_basis"] == cols["bob_basis"]
    n_sifted = int(np.count_nonzero(kept))
    agree = int(np.count_nonzero(kept & (cols["alice_bit"] == cols["bob_bit"])))
    k = round(config.sample_fraction * n_sifted)
    word = int(pulse_block(config.seed, LANE_SESSION, 0, 1)[0, 0])  # the documented uniform
    errors = _hypergeometric(n_sifted - agree, agree, k, ((word >> 11) + 0.5) * 2.0**-53)
    report = run_session(config)
    assert (report.sifted_count, report.sampled_count) == (n_sifted, k)
    assert report.bob_bit_accuracy == agree / n_sifted
    assert round(report.estimated_error_rate * report.sampled_count) == errors
    # Eve's accuracy over every pulse, or over the sifted ones only when she
    # measures her stored halves after the bases are revealed
    seen = kept if kind is AttackKind.SUPERIOR_CHANNEL else slice(None)
    hits = np.count_nonzero(cols["eve_bit"][seen] == cols["alice_bit"][seen])
    expected = None if kind is AttackKind.NONE else hits / len(cols["eve_bit"][seen])
    assert report.eve_bit_accuracy == expected


# ----------------------------------------------------------------- memory


def test_session_memory_bounded_by_one_chunk():
    """A session holds no per-pulse array beyond one chunk: 32 times the
    pulses add at most 1 MiB to the traced peak."""

    def peak(num_pulses):
        config = make_config(AttackKind.NONE, num_pulses=num_pulses)
        tracemalloc.start()
        try:
            run_session(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_session(make_config(AttackKind.NONE, num_pulses=1 << 17))  # fill the state caches
    small, large = peak(1 << 17), peak(1 << 22)
    assert large - small <= 1 << 20, (small, large)


@pytest.mark.skipif(sys.platform != "linux", reason="counts the page faults of glibc's heap")
@pytest.mark.parametrize("kind", list(AttackKind))
def test_session_faults_no_heap_pages_back_in(kind):
    """A chunk's arrays peak below glibc's heap-trim threshold, so the heap
    a chunk frees is still mapped for the next one, and a repeated
    2**22-pulse session takes no minor page faults (0 for every kind).
    Past the threshold, glibc returns the heap top after each of its 512
    chunks and the next one faults pages back in: with three more copies
    of a chunk's 192 KiB word block (3 words of 8 B for each of 2**13
    pulses) held through the chunk, every kind took 160 faults a chunk,
    81 920 a session; with two more it still took none."""
    import resource

    config = make_config(kind, num_pulses=1 << 22)
    run_session(config)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_session(config)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < config.num_pulses >> 16, faults  # under one per 2**16 pulses
