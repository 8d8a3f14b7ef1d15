import hashlib
import json

import numpy as np
import pytest

from qeraser import cli
from qeraser.experiment import (
    MODE_SINGLE,
    config_to_dict,
    default_config,
    ideal_rate,
    save_config,
    single_choice_pattern,
)
from qeraser.optics import D1

EXACT = 1e-12


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    save_config(default_config(), path)
    return path


@pytest.fixture
def small_config_path(tmp_path):
    import dataclasses

    from qeraser.experiment import SwitchSchedule

    cfg = dataclasses.replace(
        default_config(), schedule=SwitchSchedule(bits=(1, 0, 1, 0), block_size=2000)
    )
    path = tmp_path / "small.json"
    save_config(cfg, path)
    return path


def write_variant(tmp_path, name, **babu_fields):
    doc = config_to_dict(default_config())
    doc["experiment"]["babu"].update(babu_fields)
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def data_rows(path):
    return [
        line.split(",")
        for line in path.read_text().splitlines()
        if not line.startswith("#")
    ]


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------


def test_patterns_values_match_closed_form(tmp_path, config_path):
    out = tmp_path / "out"
    assert cli.main(["patterns", "--config", str(config_path), "--out", str(out)]) == 0
    cfg = default_config()
    g = cfg.geometry
    rows = data_rows(out / "patterns.csv")
    assert len(rows) == 16 * g.n_bins
    by_pair = {}
    for babu, alisha, x, p in rows:
        by_pair.setdefault((babu, alisha), []).append(float(p))
    ref = ideal_rate(0, 0, g.bin_centers, g)
    np.testing.assert_allclose(by_pair[("D1", "D1'")], ref, atol=EXACT)
    # the impossible coincidence is written and identically zero
    assert max(by_pair[("D3", "D4'")]) == 0.0


def test_patterns_manifest_hashes(tmp_path, config_path):
    out = tmp_path / "out"
    cli.main(["patterns", "--config", str(config_path), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "qeraser"
    assert manifest["command"] == "patterns"
    for name, digest in manifest["outputs"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest
    assert "timestamp" not in json.dumps(manifest)


def test_marginal_file_blind_to_babu(tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    toggled = write_variant(tmp_path, "toggled.json", splitter=False, tap_p=0.1)
    cli.main(["patterns", "--config", str(config_path), "--out", str(out1)])
    cli.main(["patterns", "--config", str(toggled), "--out", str(out2)])
    assert (out1 / "marginal.csv").read_bytes() == (out2 / "marginal.csv").read_bytes()
    assert (out1 / "patterns.csv").read_bytes() != (out2 / "patterns.csv").read_bytes()


def test_patterns_single_mode(tmp_path):
    path = tmp_path / "single.json"
    save_config(default_config(MODE_SINGLE), path)
    out = tmp_path / "out"
    assert cli.main(["patterns", "--config", str(path), "--out", str(out)]) == 0
    rows = data_rows(out / "single_patterns.csv")
    d1 = np.array([float(r[2]) for r in rows if r[0] == "D1"])
    ref = single_choice_pattern(D1, default_config(MODE_SINGLE))
    np.testing.assert_allclose(d1, ref, atol=EXACT)


# ---------------------------------------------------------------------------
# config error handling
# ---------------------------------------------------------------------------


def test_malformed_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "experiment": {\n    "mode": oops\n  }\n}\n')
    code = cli.main(["patterns", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3" in err


def test_missing_config_file(tmp_path, capsys):
    code = cli.main(
        ["patterns", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    )
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_config_value(tmp_path, capsys):
    doc = config_to_dict(default_config())
    doc["experiment"]["babu"]["tap_p"] = 2.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["patterns", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "invalid config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate + decode
# ---------------------------------------------------------------------------


def test_simulate_byte_identical_runs(tmp_path, small_config_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert (
            cli.main(
                [
                    "simulate",
                    "--config",
                    str(small_config_path),
                    "--out",
                    str(out),
                    "--seed",
                    "7",
                ]
            )
            == 0
        )
    for name in ("events.csv", "triples.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_seed_changes_output(tmp_path, small_config_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cli.main(["simulate", "--config", str(small_config_path), "--out", str(out1), "--seed", "1"])
    cli.main(["simulate", "--config", str(small_config_path), "--out", str(out2), "--seed", "2"])
    assert (out1 / "triples.csv").read_bytes() != (out2 / "triples.csv").read_bytes()


def test_simulate_with_background(tmp_path, small_config_path, capsys):
    out = tmp_path / "bg"
    code = cli.main(
        [
            "simulate",
            "--config",
            str(small_config_path),
            "--out",
            str(out),
            "--background-rate",
            "1e-4",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "orphans" in text
    from qeraser.events import read_event_log

    stream, header = read_event_log(out / "events.csv")
    assert len(stream) > 3 * header.n_triples  # dark counts landed in the log


def test_decode_roundtrip(tmp_path, small_config_path, capsys):
    out = tmp_path / "run"
    cli.main(["simulate", "--config", str(small_config_path), "--out", str(out)])
    capsys.readouterr()
    code = cli.main(
        [
            "decode",
            "--config",
            str(small_config_path),
            "--triples",
            str(out / "triples.csv"),
            "--mode",
            "omniscient",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "bit_error_rate=0.0000" in text
    assert (out / "decode_omniscient.csv").exists()


def test_decode_digest_mismatch(tmp_path, small_config_path, config_path, capsys):
    out = tmp_path / "run"
    cli.main(["simulate", "--config", str(small_config_path), "--out", str(out)])
    code = cli.main(
        [
            "decode",
            "--config",
            str(config_path),
            "--triples",
            str(out / "triples.csv"),
            "--out",
            str(out),
        ]
    )
    assert code == 2
    assert "different config" in capsys.readouterr().err


def test_decode_truncated_triples(tmp_path, small_config_path, capsys):
    out = tmp_path / "run"
    cli.main(["simulate", "--config", str(small_config_path), "--out", str(out)])
    path = out / "triples.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-10]) + "\n")
    code = cli.main(
        [
            "decode",
            "--config",
            str(small_config_path),
            "--triples",
            str(path),
            "--out",
            str(out),
        ]
    )
    assert code == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [
        (2, "12345678901234567890", "bad integer '12345678901234567890'"),
        (1, "4", "block index 4 is outside the schedule's 4 blocks"),
        (1, "-1", "block index -1 is outside the schedule's 4 blocks"),
    ],
)
def test_decode_bad_triples_field_exits_2(tmp_path, small_config_path, capsys, field, value, message):
    out = tmp_path / "run"
    cli.main(["simulate", "--config", str(small_config_path), "--out", str(out)])
    path = out / "triples.csv"
    lines = path.read_text().splitlines()
    parts = lines[-5].split(",")
    parts[field] = value
    lines[-5] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main(
        ["decode", "--config", str(small_config_path), "--triples", str(path), "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1  # one line, no traceback


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes(capsys):
    assert cli.main(["verify", "--trials", "60", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_verify_injection_hook_fails(capsys):
    assert cli.main(["verify", "--trials", "20", "--inject-nonunitary"]) == 1
    out = capsys.readouterr().out
    assert "FAIL unitarity" in out
    assert "PROPERTY VIOLATION" in out


def test_verify_with_config(config_path, capsys):
    assert cli.main(["verify", "--trials", "30", "--config", str(config_path)]) == 0
    assert capsys.readouterr().out.count("PASS") == 6


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_no_trials(capsys, trials):
    assert cli.main(["verify", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "--trials must be at least 1" in captured.err
    assert "all properties hold" not in captured.out


@pytest.mark.parametrize("arm", ["babu", "alisha"])
@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_splitter_must_be_json_bool(tmp_path, capsys, arm, value):
    doc = config_to_dict(default_config())
    doc["experiment"][arm]["splitter"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["patterns", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"{arm}.splitter must be true or false" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_small_grid(tmp_path, config_path):
    out = tmp_path / "sweep"
    code = cli.main(
        [
            "sweep",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--theta",
            "0.0,0.7853981633974483",
            "--chi",
            "0.0",
            "--tap",
            "0.0",
            "--splitter",
            "1",
        ]
    )
    assert code == 0
    rows = data_rows(out / "sweep.csv")
    assert len(rows) == 2
    flat, fringed = rows
    assert float(flat[0]) == 0.0
    assert max(float(v) for v in flat[7:11]) <= EXACT  # no splitter mixing, no fringe
    assert float(fringed[7]) >= 1.0 - 1e-9  # balanced: full contrast
    for row in rows:
        assert max(float(row[11]), float(row[12])) <= EXACT  # cancellation
        assert float(row[14]) <= EXACT  # marginal pinned to the reference


def test_sweep_rejects_bad_grid(config_path, tmp_path, capsys):
    code = cli.main(
        [
            "sweep",
            "--config",
            str(config_path),
            "--out",
            str(tmp_path / "s"),
            "--theta",
            "fast",
        ]
    )
    assert code == 2
    assert "theta" in capsys.readouterr().err


def test_sweep_needs_double_mode(tmp_path, capsys):
    path = tmp_path / "single.json"
    save_config(default_config(MODE_SINGLE), path)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 2


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "qeraser" in capsys.readouterr().out
