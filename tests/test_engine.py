"""The columnar session engine: counter-indexed word blocks, their bits,
uniforms and normals, chunk independence, exact agreement of the moment
table and the per-pulse columns with the single-pulse reference functions,
the disclosure draw, and memory bounded by one chunk."""

import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from macroqkd import attacks, protocol
from macroqkd.attacks import (
    AttackConfig,
    AttackKind,
    beamsplitter_tap,
    dual_basis_measure,
    eve_deferred_measure,
    intercept_resend,
    superior_channel,
)
from macroqkd.gaussian import SourceParams, alice_source, apply_loss
from macroqkd.photostats import Basis, DetectorModel, decode_bit
from macroqkd.protocol import (
    SessionConfig,
    _moment_table,
    _pulse_columns,
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
    box_muller,
    derive_stream,
    pulse_block,
)

DESIGN_POINT = SourceParams(gain_G=10.0, n_total_amp=2e6, bit_amplitude_N=2460.0)
BASES = (Basis.VH, Basis.DIAG)


def make_config(kind: AttackKind, num_pulses: int = 1500, seed: int = 4242) -> SessionConfig:
    """Lossy channel, noisy detectors below unit efficiency on both sides,
    so every step of the physics enters the table."""
    return SessionConfig(
        source=DESIGN_POINT,
        channel_loss=0.3,
        detector=DetectorModel(noise_equivalent_number=250.0, quantum_efficiency=0.9),
        attack=AttackConfig(
            kind=kind,
            tap_fraction=0.4 if kind is AttackKind.BEAMSPLITTER_TAP else None,
            eve_detector=DetectorModel(noise_equivalent_number=100.0, quantum_efficiency=0.8),
        ),
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
    # derive_stream skips Philox(key=...)'s entropy pull; the words must not change
    for seed, lane, index in ((0, 0, 0), (31, LANE_PULSE, 7), (-5, LANE_SESSION, 2**48 - 1),
                              (2**64 + 9, LANE_DEFERRED, 12345)):
        np.testing.assert_array_equal(
            derive_stream(seed, lane, index).bit_generator.random_raw(12),
            np.random.Philox(key=_key(seed, lane, index)).random_raw(12),
        )


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
    for w in (1, 2):  # Bob's and Eve's uniforms
        u = ((words[:, w] >> 11) + 0.5) * 2.0**-53
        assert abs(float(np.mean(u)) - 0.5) < 5 * math.sqrt(1 / 12 / pulses), w
        assert abs(float(np.mean(u < 0.1)) - 0.1) < 5 * math.sqrt(0.09 / pulses), w
    z = np.concatenate(box_muller(words[:, 2], words[:, 3]))  # dual-basis Eve's pair
    n = z.size
    assert n == 1_000_000
    assert abs(float(np.mean(z))) < 5 / math.sqrt(n)
    assert abs(float(np.var(z)) - 1.0) < 5 * math.sqrt(2.0 / n)
    tail = 2.0 * 0.5 * math.erfc(2.0 / math.sqrt(2.0))  # P(|z| > 2)
    share = float(np.mean(np.abs(z) > 2.0))
    assert abs(share - tail) < 5 * math.sqrt(tail * (1 - tail) / n)


# ---------------------------------------------------------------- chunking


@pytest.mark.parametrize("kind", list(AttackKind))
def test_columns_do_not_depend_on_chunk_size(kind):
    config = make_config(kind)
    n = config.num_pulses
    table = _moment_table(config)
    runs = []
    for chunk in (1, 7, 1 << 16):
        parts = [_pulse_columns(config, table, lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
        runs.append({name: np.concatenate([p[name] for p in parts]) for name in parts[0]})
    for other in runs[1:]:
        assert other.keys() == runs[0].keys()
        for name, column in runs[0].items():
            np.testing.assert_array_equal(other[name], column, err_msg=name)


@pytest.mark.parametrize("kind", list(AttackKind))
def test_report_does_not_depend_on_chunk_size(kind, monkeypatch):
    config = make_config(kind, num_pulses=700)
    reports = []
    for chunk in (1, 7, 1 << 16):
        monkeypatch.setattr(protocol, "_CHUNK", chunk)
        reports.append(run_session(config))
    assert reports[0] == reports[1] == reports[2]


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
    infinite."""
    points = (0, 1 << 51, 1 << 52, 3 << 51, (1 << 53) - 2)
    near = (threshold - (1 << 20), threshold + (1 << 20))
    return list(points) + [p for p in near if 0 <= p < (1 << 53) - 1]


@pytest.mark.parametrize("kind", list(AttackKind))
def test_table_entries_equal_reference_sampling(kind, monkeypatch):
    """Each threshold splits the uniforms where the reference's outcome, fed
    the normal of the uniform, changes sign; each pair of dual-basis arm
    laws gives the reference's raw pair."""
    config = make_config(kind)
    table = _moment_table(config)
    eve_det = config.attack.eve_detector

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
                        lambda z: intercept_resend(alice, ScriptedRng([e], [z]), config.source, eve_det)[2],
                    )
            elif kind is AttackKind.BEAMSPLITTER_TAP:
                eta_e = config.attack.tap_fraction
                for e in (0, 1):
                    assert_splits(
                        table.eve[bit, b, e],
                        lambda z: beamsplitter_tap(alice, eta_e, ScriptedRng([e], [z]), eve_det)[2],
                    )
            elif kind is AttackKind.DUAL_BASIS:
                (mean_vh, sigma_vh), (mean_dg, sigma_dg) = table.eve[bit, b]
                for z0, z1 in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.5, 2.0)):
                    _, raw_vh, raw_dg = dual_basis_measure(
                        alice, ScriptedRng([], [z0, z1]), config.source, eve_det
                    )
                    assert (raw_vh, raw_dg) == (mean_vh + sigma_vh * z0, mean_dg + sigma_dg * z1)
            elif kind is AttackKind.SUPERIOR_CHANNEL:
                _, stored = superior_channel(alice)

                def deferred(z):
                    monkeypatch.setattr(attacks, "derive_stream", lambda *_: ScriptedRng([], [z]))
                    return eve_deferred_measure(stored, basis, config.seed, 0, eve_det)

                assert_splits(table.eve[bit, b], deferred)


def _reference_pulse(config, i, words, monkeypatch):
    """Pulse i through the single-pulse reference functions, fed the draws
    the documented word layout assigns to it: Alice's (bit, basis), Bob's
    (basis, raw) and Eve's (basis, raw outcomes per arm), or None for Eve
    without an attack."""
    kind = config.attack.kind
    head = int(words[i, 0])
    bit, basis, eve_basis, bob_basis = (head >> s & 1 for s in (63, 62, 61, 60))
    z_bob, z_eve = (normal_of(int(w) >> 11) for w in words[i, 1:3])
    if kind in (AttackKind.INTERCEPT_RESEND, AttackKind.BEAMSPLITTER_TAP):
        rng = ScriptedRng([bit, basis, eve_basis, bob_basis], [z_eve, z_bob])
    elif kind is AttackKind.DUAL_BASIS:
        z0, z1 = (float(z[0]) for z in box_muller(words[i : i + 1, 2], words[i : i + 1, 3]))
        rng = ScriptedRng([bit, basis, bob_basis], [z0, z1, z_bob])
    else:
        rng = ScriptedRng([bit, basis, bob_basis], [z_bob])
    eve_det = config.attack.eve_detector
    bit, basis, state = alice_prepare(config, rng)
    eve = None
    if kind is AttackKind.INTERCEPT_RESEND:
        state, eve_basis, raw = intercept_resend(state, rng, config.source, eve_det)
        eve = (eve_basis, (raw,))
    elif kind is AttackKind.BEAMSPLITTER_TAP:
        state, eve_basis, raw = beamsplitter_tap(state, config.attack.tap_fraction, rng, eve_det)
        eve = (eve_basis, (raw,))
    elif kind is AttackKind.DUAL_BASIS:
        state, raw_vh, raw_dg = dual_basis_measure(state, rng, config.source, eve_det)
        # Eve trusts the smaller-magnitude arm
        eve = (Basis.VH if abs(raw_vh) <= abs(raw_dg) else Basis.DIAG, (raw_vh, raw_dg))
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
        eve = (basis, (eve_deferred_measure(stored, basis, config.seed, i, eve_det),))
    return (bit, basis), bob, eve


@pytest.mark.parametrize("kind", list(AttackKind))
def test_columns_equal_single_pulse_reference(kind, monkeypatch):
    config = make_config(kind, num_pulses=300)
    n = config.num_pulses
    table = _moment_table(config)
    cols = _pulse_columns(config, table, 0, n)
    words = pulse_block(config.seed, LANE_PULSE, 0, n)
    z0, z1 = box_muller(words[:, 2], words[:, 3])
    for i in range(n):
        (bit, basis), (bob_basis, bob_raw), eve = _reference_pulse(config, i, words, monkeypatch)
        assert cols["alice_bit"][i] == bit
        assert BASES[cols["alice_basis"][i]] is basis
        assert BASES[cols["bob_basis"][i]] is bob_basis
        assert cols["bob_bit"][i] == decode_bit(bob_raw)
        if eve is None:
            assert "eve_bit" not in cols
            continue
        eve_basis, eve_raw = eve
        if kind is AttackKind.DUAL_BASIS:
            (mean_vh, sigma_vh), (mean_dg, sigma_dg) = table.eve[bit, BASES.index(basis)]
            assert eve_raw == (mean_vh + sigma_vh * z0[i], mean_dg + sigma_dg * z1[i])
            trusted = eve_raw[0] if eve_basis is Basis.VH else eve_raw[1]
        else:
            trusted = eve_raw[0]
        assert cols["eve_bit"][i] == decode_bit(trusted)
        if kind is not AttackKind.SUPERIOR_CHANNEL:  # there Eve measures in Alice's basis
            assert BASES[cols["eve_basis"][i]] is eve_basis


# ------------------------------------------------------------- disclosure


@pytest.mark.parametrize("kind", list(AttackKind))
def test_session_discloses_hypergeometric_errors_of_its_counts(kind):
    config = make_config(kind, num_pulses=5000)
    cols = _pulse_columns(config, _moment_table(config), 0, config.num_pulses)
    kept = cols["alice_basis"] == cols["bob_basis"]
    n_sifted = int(np.count_nonzero(kept))
    agree = int(np.count_nonzero(kept & (cols["alice_bit"] == cols["bob_bit"])))
    k = round(config.sample_fraction * n_sifted)
    errors = derive_stream(config.seed, LANE_SESSION, 0).hypergeometric(n_sifted - agree, agree, k)
    report = run_session(config)
    assert (report.sifted_count, report.sampled_count) == (n_sifted, k)
    assert report.bob_bit_accuracy == agree / n_sifted
    assert round(report.estimated_error_rate * report.sampled_count) == errors


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
