"""The columnar session engine: counter-indexed word blocks, their bits and
normals, chunk independence, and exact agreement of the moment table and
the per-pulse columns with the single-pulse reference functions."""

import math

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
    box_muller,
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


# ----------------------------------------------------------------- blocks


def test_advanced_block_equals_slice_of_whole_range():
    whole = pulse_block(77, LANE_PULSE, 0, 300)
    assert whole.shape == (300, BLOCK_WORDS) and whole.dtype == np.uint64
    for lo, hi in ((0, 1), (1, 8), (137, 300), (299, 300), (5, 5)):
        np.testing.assert_array_equal(pulse_block(77, LANE_PULSE, lo, hi), whole[lo:hi])
    # lanes and seeds give unrelated words
    assert not np.array_equal(pulse_block(77, LANE_DEFERRED, 0, 300), whole)
    assert not np.array_equal(pulse_block(78, LANE_PULSE, 0, 300), whole)


def test_block_rejects_bad_range():
    with pytest.raises(ValueError):
        pulse_block(1, LANE_PULSE, 5, 4)
    with pytest.raises(ValueError):
        pulse_block(1, 8, 0, 4)


def test_block_bits_balanced_and_normals_standard():
    pulses = 250_000
    words = pulse_block(2718, LANE_PULSE, 0, pulses)
    for shift in (63, 62, 61, 60):  # the four basis and bit draws of word 0
        share = float(np.mean(words[:, 0] >> shift & 1))
        assert abs(share - 0.5) < 5 * math.sqrt(0.25 / pulses), shift
    z = np.concatenate(
        box_muller(words[:, 1], words[:, 2]) + box_muller(words[:, 3], words[:, 4])
    )
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


@pytest.mark.parametrize("kind", list(AttackKind))
def test_table_entries_equal_reference_sampling(kind, monkeypatch):
    config = make_config(kind)
    table = _moment_table(config)
    eve_det = config.attack.eve_detector
    for bit in (0, 1):
        for b, basis in enumerate(BASES):
            alice = alice_source(config.source, bit, basis)
            for m in (0, 1):
                mean, sigma = table.bob[bit, b, m]
                for z in (0.0, 1.0, -2.5):
                    _, raw = bob_measure(_sent_state(config, bit, basis), config, ScriptedRng([m], [z]))
                    assert raw == mean + sigma * z
            if kind in (AttackKind.INTERCEPT_RESEND, AttackKind.BEAMSPLITTER_TAP):
                for e in (0, 1):
                    mean, sigma = table.eve[bit, b, e]
                    for z in (0.0, 1.0, -2.5):
                        rng = ScriptedRng([e], [z])
                        if kind is AttackKind.INTERCEPT_RESEND:
                            _, _, raw = intercept_resend(alice, rng, config.source, eve_det)
                        else:
                            _, _, raw = beamsplitter_tap(alice, config.attack.tap_fraction, rng, eve_det)
                        assert raw == mean + sigma * z
            elif kind is AttackKind.DUAL_BASIS:
                mean_vh, l11, mean_dg, l21, l22 = table.eve[bit, b]
                for z0, z1 in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.5, 2.0)):
                    _, raw_vh, raw_dg = dual_basis_measure(
                        alice, ScriptedRng([], [z0, z1]), config.source, eve_det
                    )
                    assert (raw_vh, raw_dg) == (mean_vh + l11 * z0, mean_dg + l21 * z0 + l22 * z1)
            elif kind is AttackKind.SUPERIOR_CHANNEL:
                mean, sigma = table.eve[bit, b]
                for z in (0.0, 1.0, -2.5):
                    _, stored = superior_channel(alice)
                    monkeypatch.setattr(attacks, "derive_stream", lambda *_, z=z: ScriptedRng([], [z]))
                    raw = eve_deferred_measure(stored, basis, config.seed, 0, eve_det)
                    assert raw == mean + sigma * z


def _reference_pulse(config, i, words, normals, monkeypatch):
    """Pulse i through the single-pulse reference functions, fed the draws
    the documented word layout assigns to it: Alice's (bit, basis), Bob's
    (basis, raw) and Eve's (basis or None, raw outcomes per arm), or None
    for Eve without an attack."""
    kind = config.attack.kind
    head = int(words[i, 0])
    bit, basis, eve_basis, bob_basis = (head >> s & 1 for s in (63, 62, 61, 60))
    z_bob, z_eve, z_second, z_deferred = (float(z[i]) for z in normals)
    if kind in (AttackKind.INTERCEPT_RESEND, AttackKind.BEAMSPLITTER_TAP):
        rng = ScriptedRng([bit, basis, eve_basis, bob_basis], [z_eve, z_bob])
    elif kind is AttackKind.DUAL_BASIS:
        rng = ScriptedRng([bit, basis, bob_basis], [z_eve, z_second, z_bob])
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
        eve = (None, (raw_vh, raw_dg))
    elif kind is AttackKind.SUPERIOR_CHANNEL:
        state, stored = superior_channel(state)
    if kind is not AttackKind.SUPERIOR_CHANNEL:
        state = apply_loss(state, config.channel_loss)
    bob = bob_measure(state, config, rng)
    assert rng.exhausted()
    if kind is AttackKind.SUPERIOR_CHANNEL:

        def deferred_stream(seed, lane, index):
            assert (seed, lane, index) == (config.seed, LANE_DEFERRED, i)
            return ScriptedRng([], [z_deferred])

        monkeypatch.setattr(attacks, "derive_stream", deferred_stream)
        eve = (None, (eve_deferred_measure(stored, basis, config.seed, i, eve_det),))
    return (bit, basis), bob, eve


@pytest.mark.parametrize("kind", list(AttackKind))
def test_columns_equal_single_pulse_reference(kind, monkeypatch):
    config = make_config(kind, num_pulses=300)
    n = config.num_pulses
    cols = _pulse_columns(config, _moment_table(config), 0, n)
    words = pulse_block(config.seed, LANE_PULSE, 0, n)
    deferred = pulse_block(config.seed, LANE_DEFERRED, 0, n)
    z_bob, z_eve = box_muller(words[:, 1], words[:, 2])
    z_second, _ = box_muller(words[:, 3], words[:, 4])
    z_deferred, _ = box_muller(deferred[:, 0], deferred[:, 1])
    normals = (z_bob, z_eve, z_second, z_deferred)
    for i in range(n):
        (bit, basis), (bob_basis, bob_raw), eve = _reference_pulse(
            config, i, words, normals, monkeypatch
        )
        assert cols["alice_bit"][i] == bit
        assert BASES[cols["alice_basis"][i]] is basis
        assert BASES[cols["bob_basis"][i]] is bob_basis
        assert cols["bob_raw"][i] == bob_raw
        assert cols["bob_bit"][i] == decode_bit(bob_raw)
        if eve is None:
            assert "eve_bit" not in cols
            continue
        eve_basis, eve_raw = eve
        assert tuple(cols["eve_raw"][i]) == eve_raw
        if kind is AttackKind.DUAL_BASIS:  # Eve trusts the smaller-magnitude arm
            trusted = eve_raw[0] if abs(eve_raw[0]) <= abs(eve_raw[1]) else eve_raw[1]
        else:
            trusted = eve_raw[0]
        assert cols["eve_bit"][i] == decode_bit(trusted)
        if eve_basis is not None:
            assert BASES[cols["eve_basis"][i]] is eve_basis
