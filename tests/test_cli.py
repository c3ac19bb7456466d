"""Command-line harness: subcommands, CSV/report formats, exit codes,
byte-level determinism."""

import importlib.util
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macroqkd import cli, gaussian
from macroqkd._csvtext import _BLOCK, format_rows
from macroqkd.attacks import AttackConfig, AttackKind
from macroqkd.cli import ConfigError, config_from_dict, config_to_dict, main, report_text
from macroqkd.gaussian import SourceParams
from macroqkd.photostats import DetectorModel, bob_error_curve
from macroqkd.protocol import SessionConfig, run_session

REPO = Path(__file__).resolve().parents[1]

BASELINE_P_ERR = 1.891139854477733e-08
P_ERR_HALF_LOSS = 0.04860510117992879
EVE_HALF_PROBABILITY = 0.9513948988200712


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    return header, data


# --------------------------------------------------------------------- figures


def test_fig1_no_loss(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--loss", "0", "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert header == ["n", "pdf_correct_bit1", "pdf_correct_bit0", "pdf_incorrect"]
    n = data[:, 0]
    dn = n[1] - n[0]
    assert n[np.argmax(data[:, 1])] == pytest.approx(2460.0, abs=dn)
    assert n[np.argmax(data[:, 2])] == pytest.approx(-2460.0, abs=dn)
    assert n[np.argmax(data[:, 3])] == pytest.approx(0.0, abs=dn)
    for col in (1, 2, 3):
        assert np.trapezoid(data[:, col], n) == pytest.approx(1.0, abs=1e-6)


def test_fig1_half_loss_peaks(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--loss", "0.5", "--out", str(out)]) == 0
    _, data = read_csv(out)
    n = data[:, 0]
    dn = n[1] - n[0]
    assert n[np.argmax(data[:, 1])] == pytest.approx(1230.0, abs=dn)
    assert n[np.argmax(data[:, 2])] == pytest.approx(-1230.0, abs=dn)
    # broadened: lower peak density than the lossless curve
    full = tmp_path / "fig1_full.csv"
    main(["fig1", "--loss", "0", "--out", str(full)])
    _, data0 = read_csv(full)
    assert max(data[:, 1]) < max(data0[:, 1])


def test_fig2_anchors_and_monotonicity(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert header == ["eta", "p_err"]
    assert data[0, 0] == 0.0
    assert data[0, 1] == pytest.approx(BASELINE_P_ERR, rel=1e-9)
    mid = data[np.isclose(data[:, 0], 0.5)]
    assert mid[0, 1] == pytest.approx(P_ERR_HALF_LOSS, rel=1e-9)
    assert np.all(np.diff(data[:, 1]) > 0)


def test_fig3_anchors(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert header == ["eta", "p_eta"]
    assert data[0, 1] == 0.5
    assert data[np.isclose(data[:, 0], 0.5)][0, 1] == pytest.approx(
        EVE_HALF_PROBABILITY, rel=1e-9
    )
    assert data[-1, 1] == pytest.approx(1.0 - BASELINE_P_ERR, rel=1e-12)


def test_fig_csv_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["fig2", "--grid", "0:0.8:17", "--out", str(a)])
    main(["fig2", "--grid", "0:0.8:17", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()  # LF endings


def test_fig2_fig3_build_few_states_whatever_the_grid(tmp_path, monkeypatch):
    # the curves are thinned from one lossless pulse, not built per point
    built = []
    post_init = gaussian.GaussianState.__post_init__

    def counting_post_init(state):
        built.append(state)
        post_init(state)

    monkeypatch.setattr(gaussian.GaussianState, "__post_init__", counting_post_init)
    out = str(tmp_path / "curve.csv")
    for argv, grid in ((["fig2", "--detector-nen", "250"], "0:0.9:{}"), (["fig3"], "0:1:{}")):
        counts = []
        for steps in (3, 2501):
            gaussian._alice_source_cached.cache_clear()  # start from a cold source
            built.clear()
            assert main([*argv, "--grid", grid.format(steps), "--out", out]) == 0
            counts.append(len(built))
        assert 1 <= counts[0] == counts[1] <= 8, (argv[0], counts)


def test_reproduce_figures_matches_tracked_csvs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", REPO / "scripts" / "reproduce_figures.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path)
    assert script.run() == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in (REPO / "out").glob("*.csv"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (REPO / "out" / name).read_bytes(), name


# ------------------------------------------------------------------ CSV writer


def assert_rows_are_percent_g(values: np.ndarray) -> None:
    """format_rows writes ``'%.17g' % v`` for every value, warning-free, and
    every value but NaN parses back to the same bits."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = format_rows(values)
    reference = "".join(",".join("%.17g" % v for v in row) + "\n" for row in values.tolist())
    assert text == reference
    parsed = np.array([float(v) for line in text.splitlines() for v in line.split(",")])
    flat = values.ravel()
    nan = np.isnan(flat)
    assert np.array_equal(np.isnan(parsed), nan)
    assert np.array_equal(parsed[~nan].view(np.int64), flat[~nan].view(np.int64))


# a float64 bit pattern drawn field by field, so that every exponent is as
# likely as any other: exponent 0 gives zeros and subnormals, 2047 inf and NaN
DOUBLE_BITS = st.builds(
    lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
    st.integers(0, 1),
    st.integers(0, 2047),
    st.integers(0, 2**52 - 1),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(DOUBLE_BITS, max_size=200), st.integers(1, 4))
def test_csv_writer_matches_percent_g_on_any_bit_pattern(bits, n_cols):
    words = np.array(bits[: len(bits) // n_cols * n_cols], np.uint64)
    assert_rows_are_percent_g(words.view(np.float64).reshape(-1, n_cols))


def test_csv_writer_matches_percent_g_on_edge_values():
    powers = np.array([float(f"1e{k}") for k in range(-323, 308)])
    ties = [2.0**50 + 0.25, 2.0**50 + 0.75]  # exact ties at 17 digits, as are their halves
    values = np.concatenate(
        [
            [0.0, math.inf, math.nan, 5e-324, sys.float_info.max],
            powers,
            np.nextafter(powers, 0.0),
            np.nextafter(powers, math.inf),
            [t * 2.0**s for t in ties for s in range(-60, 61)],
            # the 17 digits of 1e-14 and 1e-305 round up to 10**17
            [1e-14, 1e-305, 9.999999999999999e22, 0.1, 100.0, 1e16, 1e17, 1e-4, 1e-5],
            # 1e-16 or less from a tie at 17 digits: double-double alone misrounds them
            [6.680327267462135e39, 1.8078725207183761e40, 9.193746678076147e40, 6.5349582893675465e44],
        ]
    )
    values = np.concatenate([values, -values])
    assert values.size > _BLOCK  # more than one block
    assert_rows_are_percent_g(values[:, None])
    assert_rows_are_percent_g(values[: values.size // 3 * 3].reshape(-1, 3))


# ------------------------------------------------------------------------- run


def run_args(*extra: str) -> list[str]:
    return [
        "run",
        "--pulses", "2000",
        "--seed", "42",
        "--loss", "0.2",
        "--detector-nen", "0",
        *extra,
    ]


def test_run_report_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    assert main(run_args("--out", str(out))) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["seed"] == 42
    assert payload["report"]["pulses_sent"] == 2000
    # parsing the echoed config reproduces the run exactly
    config = config_from_dict(payload["config"])
    report = run_session(config)
    assert report_text(config, report, "report") == out.read_text()


def test_run_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(run_args("--out", str(a)))
    main(run_args("--out", str(b)))
    assert a.read_bytes() == b.read_bytes()


def test_run_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    assert main(run_args("--format", "csv", "--out", str(out))) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",")[0] for line in lines[1:]}
    assert "report.estimated_error_rate" in keys
    assert "config.seed" in keys


def test_every_run_flag_reaches_its_config_field(tmp_path):
    out = tmp_path / "report.json"
    argv = [
        "run", "--gain", "12", "--n-total", "3e6", "--bit-amplitude", "2000",
        "--detector-nen", "100", "--loss", "0.25", "--attack", "beamsplitter_tap",
        "--tap-fraction", "0.3", "--pulses", "1500", "--sample-fraction", "0.2",
        "--detect-k", "4", "--seed", "9", "--out", str(out),
    ]
    assert main(argv) == 0
    assert json.loads(out.read_text())["config"] == {
        "source": {"gain_G": 12.0, "n_total_amp": 3e6, "bit_amplitude_N": 2000.0},
        "channel_loss": 0.25,
        "detector": {"noise_equivalent_number": 100.0, "quantum_efficiency": 1.0},
        "attack": {
            "kind": "beamsplitter_tap",
            "tap_fraction": 0.3,
            "eve_detector_nen": 0.0,
            "eve_detector_qe": 1.0,
        },
        "num_pulses": 1500,
        "sample_fraction": 0.2,
        "detection_sigma_k": 4.0,
        "seed": 9,
    }


def test_unset_flags_take_the_config_defaults(tmp_path, monkeypatch):
    # each default is stated once, in the dataclasses: an unset flag leaves
    # its field to cli._DEFAULTS, so changing an entry there reaches the config
    monkeypatch.setitem(cli._DEFAULTS, "num_pulses", 1234)
    monkeypatch.setitem(cli._DEFAULTS, "seed", 77)
    monkeypatch.setitem(cli._DEFAULTS, "channel_loss", 0.35)
    monkeypatch.setitem(cli._DEFAULTS["detector"], "noise_equivalent_number", 90.0)
    out = tmp_path / "report.json"
    assert main(["run", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert (config["num_pulses"], config["seed"], config["channel_loss"]) == (1234, 77, 0.35)
    assert config["detector"]["noise_equivalent_number"] == 90.0
    bare, flagged = tmp_path / "bare.csv", tmp_path / "flagged.csv"
    assert main(["fig1", "--grid=-3000:3000:7", "--out", str(bare)]) == 0
    assert main(["fig1", "--grid=-3000:3000:7", "--loss", "0.35", "--out", str(flagged)]) == 0
    assert bare.read_bytes() == flagged.read_bytes()

def test_config_roundtrip_keeps_detector_efficiencies():
    config = SessionConfig(
        source=SourceParams(gain_G=10.0, n_total_amp=2e6, bit_amplitude_N=2460.0),
        detector=DetectorModel(noise_equivalent_number=100.0, quantum_efficiency=0.9),
        attack=AttackConfig(
            kind=AttackKind.INTERCEPT_RESEND,
            eve_detector=DetectorModel(noise_equivalent_number=50.0, quantum_efficiency=0.7),
        ),
    )
    assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config


def test_run_attack_flag(tmp_path):
    out = tmp_path / "r.json"
    assert main(run_args("--attack", "intercept_resend", "--out", str(out))) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["detection_verdict"] == "eavesdropper_detected"
    assert payload["report"]["estimated_error_rate"] == pytest.approx(0.25, abs=0.1)


# ------------------------------------------------------------------ exit codes


def test_exit_code_config_errors(capsys):
    assert main(["run", "--loss", "1.5", "--pulses", "0"]) == 1
    err = capsys.readouterr().err
    # every offending field is listed
    assert "channel_loss" in err and "num_pulses" in err
    assert main(["run", "--attack", "nonsense"]) == 1
    assert main(["fig2", "--grid", "0.9:0:5"]) == 1
    assert main(["run", "--attack", "beamsplitter_tap"]) == 1  # missing tap fraction
    capsys.readouterr()
    # a tap fraction on an attack that takes none is an error, listed with the rest
    argv = ["run", "--attack", "intercept_resend", "--tap-fraction", "0.3", "--pulses", "0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "tap_fraction" in err and "num_pulses" in err
    assert main(["nonexistent-command"]) == 1
    # the disclosure draw bounds a session to 10^9 pulses
    assert main(["run", "--pulses", "1000000001"]) == 1
    assert "num_pulses" in capsys.readouterr().err
    # a pulse count may be written 1e8, but it must be a whole, finite number
    for pulses in ("1.5", "1e-3", "nan", "inf", "many"):
        assert main(["run", "--pulses", pulses]) == 1, pulses
        assert "--pulses" in capsys.readouterr().err, pulses
    assert main(["run", "--pulses", "2e3", "--format", "csv"]) == 0
    assert "report.pulses_sent,2000\n" in capsys.readouterr().out
    # fig3 is the noiseless known-basis curve: a detector flag would be ignored
    assert main(["fig3", "--detector-nen", "1000"]) == 1
    assert main(["fig2", "--detector-nen", "nan"]) == 1
    err = capsys.readouterr().err
    assert "--detector-nen" in err and "noise_equivalent_number" in err
    # infinities pass the bare inequalities but are just as invalid
    for argv in (
        ["run", "--n-total", "inf"],
        ["run", "--detector-nen", "inf"],
        ["run", "--detect-k", "inf", "--attack", "intercept_resend"],
        ["fig2", "--n-total", "inf"],
        ["fig3", "--n-total", "inf"],
        ["fig1", "--grid", "0:inf:3"],
    ):
        assert main(argv) == 1, argv
        assert "must be finite" in capsys.readouterr().err, argv
    # a bad tolerance is the flag's fault, not the engine's: no ladder runs
    for tol in ("nan", "-1", "inf"):
        assert main(["validate", "--tol", tol]) == 1, tol
        err = capsys.readouterr().err
        assert "--tol" in err and "validation FAILED" not in err, tol


def test_run_lists_source_detector_session_and_attack_problems(capsys):
    argv = [
        "run", "--gain", "-1", "--detector-nen", "-5", "--pulses", "0",
        "--attack", "intercept_resend", "--tap-fraction", "0.3",
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    for field in ("gain_G", "noise_equivalent_number", "num_pulses", "tap_fraction"):
        assert field in err, field


@pytest.mark.parametrize(
    "argv, fields",
    [
        (
            "fig1 --gain -1 --detector-nen -5 --loss 2 --grid 0:inf:3",
            ("gain_G", "--detector-nen", "noise_equivalent_number", "channel_loss", "--grid"),
        ),
        (
            "fig2 --gain -1 --detector-nen -5 --grid 0:2:3",
            ("gain_G", "--detector-nen", "noise_equivalent_number", "--grid"),
        ),
        ("fig3 --gain -1 --grid 0:2:3", ("gain_G", "--grid")),
        (
            "run --gain -1 --detector-nen -5 --pulses 0 --loss 2",
            ("gain_G", "noise_equivalent_number", "num_pulses", "channel_loss"),
        ),
    ],
    ids=["fig1", "fig2", "fig3", "run"],
)
def test_every_subcommand_lists_every_problem(argv, fields, capsys):
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    for field in fields:
        assert field in err, field


def test_eta_grids_take_their_curves_range(tmp_path, capsys):
    # fig2's grid stops short of 1 exactly where bob_error_curve does
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--grid", "0:0.9999999999995:3", "--out", str(out)]) == 0
    _, data = read_csv(out)
    design = SourceParams(gain_G=10.0, n_total_amp=2e6, bit_amplitude_N=2460.0)
    expected = bob_error_curve(design, [0.9999999999995], DetectorModel(noise_equivalent_number=0.0))
    assert data[-1, 0] == 0.9999999999995
    assert data[-1, 1] == expected[0]
    for argv in (["fig2", "--grid", "0:1:3"], ["fig3", "--grid", "0:1.5:3"]):
        assert main(argv) == 1, argv
        assert "--grid: eta must be in" in capsys.readouterr().err, argv


def test_config_from_dict_names_every_missing_field():
    with pytest.raises(ValueError) as info:
        config_from_dict({"source": {"gain_G": 10.0, "gain": 10.0}, "seed": 1, "chanel_loss": 0.5})
    message = str(info.value)
    for field in (
        "source.n_total_amp", "source.bit_amplitude_N",
        "channel_loss", "detector.noise_equivalent_number", "detector.quantum_efficiency",
        "attack.kind", "attack.tap_fraction", "attack.eve_detector_nen",
        "attack.eve_detector_qe", "num_pulses", "sample_fraction", "detection_sigma_k",
    ):
        assert field in message, field
    assert "gain_G" not in message and "seed" not in message
    # misspelled keys are named with the missing ones, never silently ignored
    assert "unknown config fields: chanel_loss, source.gain" in message
    # the pump phase is fixed at pi/2, so a config that still sets it is refused
    data = config_to_dict(
        SessionConfig(source=SourceParams(gain_G=10.0, n_total_amp=2e6, bit_amplitude_N=2460.0))
    )
    data["source"]["squeeze_phase_theta"] = math.pi / 2
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    assert str(info.value) == "unknown config fields: source.squeeze_phase_theta"
    # a config that is not an object is refused as one, never a crash
    for data, name in (([1, 2], "list"), ("x", "str"), (None, "NoneType"), (5, "int")):
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert str(info.value) == f"config must be an object (got {name})"


def test_config_from_dict_lists_every_invalid_value():
    data = config_to_dict(
        SessionConfig(source=SourceParams(gain_G=10.0, n_total_amp=2e6, bit_amplitude_N=2460.0))
    )
    data["source"]["gain_G"] = 0.5
    data["detector"]["quantum_efficiency"] = 0.0
    data["attack"]["kind"] = "nonsense"
    data["attack"]["eve_detector_nen"] = -1.0
    data["num_pulses"] = 0
    with pytest.raises(ValueError) as info:
        config_from_dict(data)
    message = str(info.value)
    for field in ("gain_G", "quantum_efficiency", "attack kind", "Eve's detector", "num_pulses"):
        assert field in message, field
    # infinities pass the bare inequalities but are just as invalid
    data = config_to_dict(
        SessionConfig(source=SourceParams(gain_G=10.0, n_total_amp=2e6, bit_amplitude_N=2460.0))
    )
    data["source"]["gain_G"] = math.inf
    data["source"]["n_total_amp"] = math.inf
    data["detector"]["noise_equivalent_number"] = math.inf
    data["detection_sigma_k"] = math.inf
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    problems = str(info.value).split("; ")
    fields = ("gain_G", "n_total_amp", "noise_equivalent_number", "detection_sigma_k")
    assert len(problems) == len(fields), problems
    for field, problem in zip(fields, problems):
        assert field in problem and "inf" in problem, problem
    # a wrong type is a configuration error too, never a crash or a silent run
    for section, key, value in (
        (None, "num_pulses", 1000.0),
        (None, "num_pulses", "1000"),
        (None, "num_pulses", True),
        (None, "seed", 1.5),
        (None, "channel_loss", False),
        (None, "sample_fraction", "0.1"),
        ("source", "gain_G", "10"),
        ("detector", "quantum_efficiency", None),
        ("detector", "noise_equivalent_number", [0.0]),
    ):
        data = config_to_dict(
            SessionConfig(source=SourceParams(gain_G=10.0, n_total_amp=2e6, bit_amplitude_N=2460.0))
        )
        (data[section] if section else data)[key] = value
        data["detection_sigma_k"] = -1.0  # listed with the type problem
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        problems = str(info.value).split("; ")
        assert len(problems) == 2, problems
        assert any("detection_sigma_k" in p for p in problems), problems
        assert any(key in p and repr(value) in p for p in problems), problems


def test_program_faults_are_not_configuration_errors(monkeypatch):
    def broken_session(config):
        raise ValueError("engine fault")

    monkeypatch.setattr(cli, "run_session", broken_session)
    with pytest.raises(ValueError, match="engine fault"):
        main(run_args())


def test_exit_code_io_error(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["fig2", "--out", str(missing_dir)]) == 3


def test_exit_code_validation(tmp_path):
    out = tmp_path / "validate.csv"
    assert main(["validate", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("r,alpha_v_sq,alpha_h_sq,eta,basis,quantity")
    assert len(lines) == 1 + 3 * 3 * 3 * 2 * 2 * 2
    assert all(line.endswith(",pass") for line in lines[1:])
    # an absurdly tight tolerance must flip the exit code to 2
    assert main(["validate", "--tol", "1e-18", "--out", str(out)]) == 2


def test_import_loads_no_scipy(tmp_path):
    # numpy.random loads with a session's first draw; the import, the oracle
    # ladder and the figures draw nothing, so they need not load it
    code = f"""
import sys
def loaded(name):
    return [m for m in sys.modules if m == name or m.startswith(name + ".")]
import macroqkd
print(loaded("scipy"), loaded("numpy.random"))
from macroqkd import cli, validate
validate.run_ladder()
print(loaded("numpy.random"))
cli.main(["fig2", "--out", {str(tmp_path / "fig2.csv")!r}])
print(loaded("numpy.random"))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[] []", "[]", "[]"]


def test_every_exported_name_resolves():
    import macroqkd

    assert [name for name in macroqkd.__all__ if not hasattr(macroqkd, name)] == []
    assert "difference_moments" in macroqkd.__all__
    assert "sample_outcome" not in macroqkd.__all__


def test_console_entry_point(tmp_path):
    out = tmp_path / "fig3.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "macroqkd", "fig3", "--grid", "0:1:3", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.read_text().splitlines()[0] == "eta,p_eta"
