import contextlib
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeraser import cli, events
from qeraser.analysis import decode_alisha_only, decode_omniscient, write_decode_csv
from qeraser.events import read_triples
from qeraser.experiment import (
    MODE_SINGLE,
    SwitchSchedule,
    config_to_dict,
    default_config,
    ideal_rate,
    load_config,
    save_config,
    single_choice_pattern,
)
from qeraser.optics import D1, GaussianEnvelope, UniformEnvelope, arm_tables

from oracles import as_v1, as_v2, property_suite_loop, sweep_rows
from test_experiment import INTEGERS, NUMBERS, fuzz_base, malformed_documents, node_at
from test_stream_paths import MUTATIONS, mutate_stream_file

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


def manifest_of(out: Path) -> dict:
    """out's manifest, checked to name exactly the other files in out, each
    with the sha256 of its bytes as read back from disk."""
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir()
        if p.name != "manifest.json"
    }
    assert manifest["outputs"] == on_disk
    return manifest


def test_patterns_manifest_hashes(tmp_path, config_path):
    out = tmp_path / "out"
    cli.main(["patterns", "--config", str(config_path), "--out", str(out)])
    manifest = manifest_of(out)
    assert manifest["tool"] == "qeraser"
    assert manifest["command"] == "patterns"
    assert sorted(manifest["outputs"]) == ["marginal.csv", "patterns.csv"]
    assert "timestamp" not in json.dumps(manifest)


def test_manifest_digests_are_the_written_bytes(tmp_path, small_config_path):
    """Each writer's own digest, for the stream files and every small table."""
    config = ["--config", str(small_config_path)]
    sim, dec, swp = tmp_path / "sim", tmp_path / "dec", tmp_path / "swp"
    assert cli.main(["simulate", *config, "--out", str(sim), "--background-rate", "1e-3"]) == 0
    triples = ["--triples", str(sim / "triples.csv")]
    assert cli.main(["decode", *config, *triples, "--mode", "alisha", "--out", str(dec)]) == 0
    assert cli.main(["sweep", *config, "--tap", "0.5", "--splitter", "1", "--out", str(swp)]) == 0
    for out, command, names in (
        (sim, "simulate", ["events.csv", "triples.csv"]),
        (dec, "decode", ["decode_alisha.csv"]),
        (swp, "sweep", ["sweep.csv"]),
    ):
        manifest = manifest_of(out)
        assert manifest["command"] == command
        assert sorted(manifest["outputs"]) == names


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


def test_patterns_failure_writes_nothing(tmp_path, capsys):
    doc = config_to_dict(default_config(MODE_SINGLE))
    doc["experiment"]["babu"]["tap_p"] = 1.0  # the tap takes every idler: no erased pattern
    path = tmp_path / "all_tapped.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["patterns", "--config", str(path), "--out", str(out)]) == 2
    assert "no erased amplitude remains" in capsys.readouterr().err
    assert not out.exists()


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


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err  # one line, no traceback
    return err


def test_config_directory_exits_2(tmp_path, capsys):
    code = cli.main(["patterns", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert one_line_error(capsys) == f"qeraser: Is a directory: {tmp_path}\n"
    assert not (tmp_path / "o").exists()


def test_triples_directory_exits_2(tmp_path, small_config_path, capsys):
    args = ["--config", str(small_config_path), "--triples", str(tmp_path), "--out", str(tmp_path / "o")]
    assert cli.main(["decode", *args]) == 2
    assert one_line_error(capsys) == f"qeraser: Is a directory: {tmp_path}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content", ["", "\n\n", "0,0,1,D1,D1'\n"])
def test_headerless_triples_exits_2(tmp_path, small_config_path, capsys, content):
    path = tmp_path / "triples.csv"
    path.write_text(content)
    args = ["--config", str(small_config_path), "--triples", str(path), "--out", str(tmp_path / "o")]
    assert cli.main(["decode", *args]) == 2
    assert one_line_error(capsys) == (
        f"qeraser: bad triples file {path}: stream header missing field 'n_rows'\n"
    )


def test_simulate_out_is_a_file_exits_2(tmp_path, small_config_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    code = cli.main(["simulate", "--config", str(small_config_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("qeraser: File exists: ") and err.endswith(f"{out}\n")
    assert out.read_text() == "keep me\n"


# each command's first expensive call; a bad --out must be refused before it
FIRST_WORK = {
    "patterns": "distribution_for",
    "simulate": "event_chunks",
    "decode": "triple_passes",
    "sweep": "_sweep_rows",
}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", sorted(FIRST_WORK))
def test_bad_out_exits_2_before_any_work(
    tmp_path, small_config_path, monkeypatch, capsys, command, under
):
    def work(*args, **kwargs):
        raise AssertionError(f"{command} started work before checking --out")

    monkeypatch.setattr(cli, FIRST_WORK[command], work)
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    out = taken / "sub" if under else taken
    argv = [command, "--config", str(small_config_path), "--out", str(out)]
    if command == "decode":
        argv += ["--triples", str(tmp_path / "triples.csv")]
    assert cli.main(argv) == 2
    reason = "Not a directory" if under else "File exists"
    assert one_line_error(capsys) == f"qeraser: {reason}: {out}\n"
    assert taken.read_text() == "keep me\n"


# every (command, name) a command writes into --out, decode at its default mode
WRITTEN = [
    (command, name.format(mode="omniscient"))
    for command, names in sorted(cli.OUTPUTS.items())
    for name in (*names, cli.MANIFEST)
]


@pytest.mark.parametrize("command, name", WRITTEN, ids=["-".join(pair) for pair in WRITTEN])
def test_out_name_taken_by_directory_exits_2_before_any_work(
    tmp_path, small_config_path, monkeypatch, capsys, command, name
):
    def work(*args, **kwargs):
        raise AssertionError(f"{command} started work before checking its output names")

    monkeypatch.setattr(cli, FIRST_WORK[command], work)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    argv = [command, "--config", str(small_config_path), "--out", str(out)]
    if command == "decode":
        argv += ["--triples", str(tmp_path / "triples.csv")]
    assert cli.main(argv) == 2
    assert one_line_error(capsys) == f"qeraser: Is a directory: {out / name}\n"
    assert [p.name for p in out.iterdir()] == [name]


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


@pytest.mark.parametrize("chunk, rate", [(1000, "0"), (999, "1e-4")])
def test_simulate_refuses_a_bad_field_in_a_middle_chunk(
    tmp_path, small_config_path, monkeypatch, capsys, chunk, rate
):
    """Each chunk of events.csv is checked before it is written; a refusal removes the file.

    The fourth chunk's last record gets a time past the row grammar, after
    three chunks have been written; the matcher takes it, as the chunk is
    still time-sorted.  Exit 2, the writer's one-line message naming the
    record's row in the file, and no --out, which the run made.
    """
    from qeraser import events

    monkeypatch.setattr(events, "_CHUNK_TRIPLES", chunk)
    stream_chunks = events._stream_chunks

    def bad_chunks(*args):
        row = 0
        for i, piece in enumerate(stream_chunks(*args)):
            if i == 3:
                piece["time_ns"][-1] = 10**18
                bad_chunks.row = row + len(piece["time_ns"]) - 1
            row += len(piece["time_ns"])
            yield piece

    monkeypatch.setattr(events, "_stream_chunks", bad_chunks)
    out = tmp_path / "sim"
    argv = ["simulate", "--config", str(small_config_path), "--out", str(out), "--background-rate", rate]
    assert cli.main(argv) == 2
    assert one_line_error(capsys) == (
        f"qeraser: cannot write event log: time_ns 1000000000000000000 in row {bad_chunks.row} "
        "is outside 0..999999999999999999\n"
    )
    assert not out.exists()


def failing_triples_writer(monkeypatch):
    """Make simulate's triples.csv writer fail for want of space, once events.csv is written."""

    def write_spilled_triples(path, spill, header, n_rows):
        assert (path.parent / "events.csv").is_file()
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(cli, "write_spilled_triples", write_spilled_triples)


def test_simulate_removes_what_it_wrote_when_a_later_writer_fails(
    tmp_path, small_config_path, monkeypatch, capsys
):
    """events.csv, written before triples.csv fails, goes, and so do the directories made."""
    failing_triples_writer(monkeypatch)
    out = tmp_path / "new" / "sim"
    argv = ["simulate", "--config", str(small_config_path), "--out", str(out)]
    assert cli.main(argv) == 2
    assert one_line_error(capsys) == f"qeraser: No space left on device: {out / 'triples.csv'}\n"
    assert not (tmp_path / "new").exists()


def test_a_failed_simulate_keeps_an_existing_out_and_its_files(
    tmp_path, small_config_path, monkeypatch, capsys
):
    """An --out that existed before the run keeps the files the run did not write."""
    failing_triples_writer(monkeypatch)
    out = tmp_path / "sim"
    (out / "notes").mkdir(parents=True)
    (out / "notes" / "run.txt").write_text("earlier run\n")
    (out / "README").write_text("kept\n")
    argv = ["simulate", "--config", str(small_config_path), "--out", str(out)]
    assert cli.main(argv) == 2
    one_line_error(capsys)
    assert sorted(p.name for p in out.iterdir()) == ["README", "notes"]
    assert (out / "README").read_text() == "kept\n"
    assert (out / "notes" / "run.txt").read_text() == "earlier run\n"


def no_work(command):
    def work(*args, **kwargs):
        raise AssertionError(f"{command} started work before checking its flags")

    return work


@pytest.mark.parametrize("rate", ["-1", "-0.001", "nan"])
def test_simulate_rejects_bad_background_rate(
    tmp_path, small_config_path, monkeypatch, capsys, rate
):
    """A nan or negative rate passes the dark-count limit; it is refused before sampling."""
    monkeypatch.setattr(cli, "event_chunks", no_work("simulate"))
    out = tmp_path / "bg"
    argv = ["simulate", "--config", str(small_config_path), "--out", str(out), "--background-rate", rate]
    assert cli.main(argv) == 2
    assert one_line_error(capsys) == (
        f"qeraser: --background-rate {float(rate)!r}: "
        "the background rate must be finite and non-negative\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "99999999999999999999", "stream header field seed=99999999999999999999 "
         "is outside 0..999999999999999999"),
        ("--seed", "1000000000000000000", "stream header field seed=1000000000000000000 "
         "is outside 0..999999999999999999"),
        # a negative one is the flag's own refusal, which comes before the header's
        ("--seed", "-99999999999999999999",
         "--seed -99999999999999999999: the seed must be a non-negative integer"),
        ("--window-ns", "-1000000000000000000",
         "--window-ns -1000000000000000000: the window must be non-negative"),
    ],
)
def test_simulate_refuses_header_integers_the_reader_refuses(
    tmp_path, small_config_path, monkeypatch, capsys, flag, value, message
):
    """A stream header integer past 18 digits or signed would write a triples.csv decode refuses."""
    monkeypatch.setattr(cli, "event_chunks", no_work("simulate"))
    out = tmp_path / "sim"
    argv = ["simulate", "--config", str(small_config_path), "--out", str(out), flag, value]
    assert cli.main(argv) == 2
    assert one_line_error(capsys) == f"qeraser: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_a_negative_seed_is_refused_naming_the_flag_before_any_work(
    tmp_path, small_config_path, monkeypatch, capsys, command
):
    monkeypatch.setattr(cli, "event_chunks", no_work("simulate"))
    monkeypatch.setattr(cli, "run_property_suite", no_work("verify"))
    out = tmp_path / "sim"
    argv = {
        "simulate": ["simulate", "--config", str(small_config_path), "--out", str(out)],
        "verify": ["verify"],
    }[command]
    assert cli.main([*argv, "--seed", "-1"]) == 2
    assert one_line_error(capsys) == "qeraser: --seed -1: the seed must be a non-negative integer\n"
    assert not out.exists()


@pytest.mark.parametrize("rate", ["1e30", "inf", "2e11"])
def test_simulate_refuses_a_background_rate_past_the_declarable_rows(
    tmp_path, small_config_path, monkeypatch, capsys, rate
):
    """8,000 triples 1000 ns apart: over 1.25e11 dark counts per ns would pass 10^18 - 1 rows.

    events.csv's header declares its row count, n_rows, which must fit the row grammar.
    """
    monkeypatch.setattr(cli, "event_chunks", no_work("simulate"))
    out = tmp_path / "sim"
    argv = ["simulate", "--config", str(small_config_path), "--out", str(out), "--background-rate", rate]
    assert cli.main(argv) == 2
    err = one_line_error(capsys)
    assert err.startswith(f"qeraser: --background-rate {float(rate)!r} expects ")
    assert not out.exists()


def test_simulate_out_of_memory_exits_2(tmp_path, small_config_path, monkeypatch, capsys):
    """An allocation numpy refuses part way through the run exits 2 with its one line.

    The first chunk is written before the refusal, so --out and events.csv
    exist by then; both are removed.
    """
    build = cli.event_chunks
    reason = "Unable to allocate 64.0 PiB for an array with shape (9007199254740992,) and data type int64"

    def event_chunks(config, seed, rate):
        records, chunks = build(config, seed, rate)

        def refused():
            yield next(chunks)
            raise MemoryError(reason)

        return records, refused()

    monkeypatch.setattr(cli, "event_chunks", event_chunks)
    out = tmp_path / "sim"
    argv = ["simulate", "--config", str(small_config_path), "--out", str(out), "--background-rate", "1e-3"]
    assert cli.main(argv) == 2
    assert one_line_error(capsys) == f"qeraser: {reason}\n"
    assert not out.exists()


def test_simulate_refuses_a_run_larger_than_the_free_disk(
    tmp_path, small_config_path, monkeypatch, capsys
):
    """1e10 dark counts per ns over 8e6 ns is 8e16 events: 4.0e17 bytes of events.csv or more.

    The dark counts are drawn a window at a time, so no allocation refuses
    such a run; the disk check does, before any draw.
    """
    monkeypatch.setattr(cli, "event_chunks", no_work("simulate"))
    out = tmp_path / "sim"
    argv = ["simulate", "--config", str(small_config_path), "--out", str(out), "--background-rate", "1e10"]
    assert cli.main(argv) == 2
    assert one_line_error(capsys).startswith(
        "qeraser: the run expects 8e+16 event records at --background-rate 10000000000.0 "
        "and 8000 triples, at least 4e+17 bytes of events.csv, triples.csv and their spill, but "
    )
    assert not out.exists()


@pytest.mark.parametrize("spare, code", [(-1, 2), (0, 0)])
def test_simulate_checks_the_free_disk_where_out_will_be(
    tmp_path, small_config_path, monkeypatch, capsys, spare, code
):
    """8,000 triples 1000 ns apart at 1e-3 per ns expect 32,000 rows, 5 bytes each at least.

    The triples take 8 bytes each at least, twice: in the spill and in
    triples.csv.  The free bytes are read on --out's nearest existing
    parent; a run that needs one byte more than that is refused before any
    draw, with one line.
    """
    import shutil
    from types import SimpleNamespace

    asked = []

    def disk_usage(path):
        asked.append(Path(path))
        return SimpleNamespace(total=10**12, used=0, free=32_000 * 5 + 2 * 8_000 * 8 + spare)

    monkeypatch.setattr(shutil, "disk_usage", disk_usage)
    if code:
        monkeypatch.setattr(cli, "event_chunks", no_work("simulate"))
    out = tmp_path / "a" / "b" / "sim"
    argv = ["simulate", "--config", str(small_config_path), "--out", str(out), "--background-rate", "1e-3"]
    assert cli.main(argv) == code
    assert asked == [tmp_path]
    if code:
        assert one_line_error(capsys) == (
            "qeraser: the run expects 3.2e+04 event records at --background-rate 0.001 "
            "and 8000 triples, at least 2.88e+05 bytes of events.csv, triples.csv and their "
            f"spill, but {tmp_path} has 287999 bytes free\n"
        )
        assert not (tmp_path / "a").exists()
    else:
        assert (out / "events.csv").exists()


def test_simulate_bad_window_writes_nothing(tmp_path, small_config_path, monkeypatch, capsys):
    """A negative window is refused before sampling, not by the matcher after the build."""
    monkeypatch.setattr(cli, "event_chunks", no_work("simulate"))
    out = tmp_path / "win"
    argv = ["simulate", "--config", str(small_config_path), "--out", str(out), "--window-ns", "-1"]
    assert cli.main(argv) == 2
    assert one_line_error(capsys) == "qeraser: --window-ns -1: the window must be non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "scale, window, code",
    [(1.0, 5000, 2), (1.0, 501, 2), (1.0, 500, 0), (25.0, 21, 2), (25.0, 20, 0)],
)
def test_simulate_rejects_overlapping_windows(tmp_path, capsys, scale, window, code):
    """A window wider than half the triple spacing lets one D0 claim another triple's idlers."""
    import dataclasses

    from qeraser.experiment import SwitchSchedule

    cfg = dataclasses.replace(
        default_config(),
        schedule=SwitchSchedule(bits=(1, 0), block_size=200),
        pair_rate_scale=scale,
    )
    path = tmp_path / "two_blocks.json"
    save_config(cfg, path)
    out = tmp_path / "sim"
    argv = ["simulate", "--config", str(path), "--out", str(out), "--window-ns", str(window)]
    argv += ["--background-rate", "1e-3"]
    assert cli.main(argv) == code
    if code == 0:
        assert (out / "manifest.json").exists()
        return
    err = capsys.readouterr().err
    spacing = 1000 if scale == 1.0 else 40
    assert f"--window-ns {window} is more than half the triple spacing {spacing} ns" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("block_size, code", [(1000, 0), (1001, 2)])
def test_simulate_refuses_times_past_the_limit(tmp_path, monkeypatch, capsys, block_size, code):
    """pair_rate_scale 1e-12 spaces triples 10**15 ns apart: 1,000 triples end within
    10**18 - 1 ns, and 1,001 are refused before any work, where they used to wrap time_ns."""
    from qeraser.experiment import SwitchSchedule

    cfg = dataclasses.replace(
        default_config(), schedule=SwitchSchedule(bits=(1,), block_size=block_size), pair_rate_scale=1e-12
    )
    path = tmp_path / "sparse.json"
    save_config(cfg, path)
    out = tmp_path / "sim"
    if code == 2:
        monkeypatch.setattr(cli, "event_chunks", no_work("simulate"))
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == code
    if code == 0:
        assert (out / "manifest.json").exists()
        return
    assert one_line_error(capsys) == (
        "qeraser: pair_rate_scale 1e-12 spaces triples 1000000000000000 ns apart, "
        "so 1001 triples would time records past 999999999999999999 ns\n"
    )
    assert not out.exists()


def test_simulate_refuses_an_infinite_spacing(tmp_path, capsys):
    """1000 / 1e-320 overflows to inf; it is one line, not an OverflowError traceback."""
    doc = config_to_dict(default_config())
    doc["experiment"]["pair_rate_scale"] = 1e-320
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert one_line_error(capsys) == (
        "qeraser: pair_rate_scale 1e-320 spaces triples more than 999999999999999999 ns apart\n"
    )
    assert not out.exists()


def test_simulate_single_mode_writes_nothing(tmp_path, capsys):
    config = Path(__file__).resolve().parent.parent / "configs" / "single_default.json"
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert "needs a double_delayed_choice config" in capsys.readouterr().err
    assert not out.exists()


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
        (1, "12345678901234567890", "bad integer '12345678901234567890'"),
        # 2**32 + 1: an int32 cast would wrap it to bin 1
        (1, "4294967297", "x_bin 4294967297 is outside 0..2147483647 in triple row"),
        (1, "2147483648", "x_bin 2147483648 is outside 0..2147483647 in triple row"),
        (0, "4", "block index 4 is outside the schedule's 4 blocks"),
        # a field is unsigned: a sign is a bad integer, in any column
        (0, "-1", "bad integer '-1' in triple row (want [0-9]{1,18})"),
        (0, "-0", "bad integer '-0' in triple row (want [0-9]{1,18})"),
        (1, "-1", "bad integer '-1' in triple row (want [0-9]{1,18})"),
        (2, "-0", "bad integer '-0' in triple row (want [0-9]{1,18})"),
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
    assert not (out / "decode_omniscient.csv").exists()


def test_decode_non_utf8_header_exits_2(tmp_path, small_config_path, capsys):
    """A header byte that is not UTF-8 is named with its line, escaped."""
    out = tmp_path / "run"
    cli.main(["simulate", "--config", str(small_config_path), "--out", str(out)])
    path = out / "triples.csv"
    data = path.read_bytes()
    assert b"\n# seed=0\n" in data
    path.write_bytes(data.replace(b"\n# seed=0\n", b"\n# seed=0\xff\n", 1))
    capsys.readouterr()
    code = cli.main(
        ["decode", "--config", str(small_config_path), "--triples", str(path), "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == (
        f"qeraser: bad triples file {path}: header line is not UTF-8: '# seed=0\\\\xff'\n"
    )


def simulated_triples(tmp_path, config_path):
    """triples.csv of a default simulate run under the config at config_path."""
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    return out / "triples.csv"


def decode_argv(config_path, path, out, mode="omniscient"):
    return ["decode", "--config", str(config_path), "--triples", str(path), "--mode", mode, "--out", str(out)]


@pytest.mark.parametrize(
    "read, rows", [(16, 1), (4099, 97), (None, None)], ids=["one-row", "prime", "whole-file"]
)
@pytest.mark.parametrize("mode", ["omniscient", "alisha"])
def test_decode_passes_equal_the_whole_batch_decoders(
    tmp_path, small_config_path, monkeypatch, capsys, mode, read, rows
):
    """decode's file and stdout are the whole-batch decoder's on the file read whole.

    decode sums the reader's passes: one row (a read of about one row's
    bytes), 97 rows in 4,099-byte reads, or the whole file in one read.
    """
    path = simulated_triples(tmp_path, small_config_path)
    triples, header = read_triples(path)
    config = load_config(small_config_path)
    decoder = decode_omniscient if mode == "omniscient" else decode_alisha_only
    report = decoder(triples, config.schedule, config.geometry)
    want = tmp_path / "want.csv"
    write_decode_csv(want, report, {"config_digest": header.config_digest, "seed": header.seed})
    monkeypatch.setattr(events, "_READ_BYTES", read or path.stat().st_size)
    monkeypatch.setattr(events, "_CHUNK_ROWS", rows or len(triples))
    capsys.readouterr()
    out = tmp_path / "dec"
    assert cli.main(decode_argv(small_config_path, path, out, mode)) == 0
    assert (out / f"decode_{mode}.csv").read_bytes() == want.read_bytes()
    printed = capsys.readouterr()
    assert printed.err == ""
    assert printed.out.splitlines()[1:] == [
        f"decoded_bits={''.join(map(str, report.decoded_bits))}",
        f"true_bits={''.join(map(str, report.true_bits))}",
        f"bit_error_rate={report.bit_error_rate:.4f}",
        f"confidence={report.confidence:.4f}",
    ]


def set_field(path, row, field, value):
    """Set one field of a data row of the file at path (rows count from the first, or back from -1)."""
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    at = first + row if row >= 0 else len(lines) + row
    parts = lines[at].split(",")
    parts[field] = value
    lines[at] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


def test_decode_reports_truncation_before_the_config_digest(
    tmp_path, small_config_path, config_path, monkeypatch, capsys
):
    """A truncated file made under another config: the truncation's message, as when read whole."""
    path = simulated_triples(tmp_path, small_config_path)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-10]))
    with pytest.raises(ValueError) as whole:
        read_triples(path)
    monkeypatch.setattr(events, "_CHUNK_ROWS", 7)
    capsys.readouterr()
    assert cli.main(decode_argv(config_path, path, tmp_path / "dec")) == 2
    assert "truncated" in str(whole.value)
    assert one_line_error(capsys) == f"qeraser: bad triples file {path}: {whole.value}\n"
    assert not (tmp_path / "dec").exists()


TRIPLES_COLUMNS = "block_index,x_bin,babu,alisha"
PERMUTED_COLUMNS = "x_bin,block_index,alisha,babu"


def edited(*edits):
    """A rewrite of a triples file's text: each (old, new) replaced once in its header lines."""

    def rewrite(text):
        for old, new in edits:
            assert f"# {old}\n" in text or f"# columns={old}\n" in text
            text = text.replace(old, new, 1)
        return text

    return rewrite


BABU_LABELS_LINE = "babu_labels=D1,D2,D3,D4"
ALISHA_LABELS_LINE = "alisha_labels=D1',D2',D3',D4'"


def dropped(line):
    """A rewrite of a triples file's text without its header line '# line'."""

    def rewrite(text):
        assert f"# {line}\n" in text
        return text.replace(f"# {line}\n", "", 1)

    return rewrite


@pytest.mark.parametrize(
    "rewrite, message",
    [
        (
            edited(("qeraser-triples v3", "qeraser-event-log v7"), (TRIPLES_COLUMNS, PERMUTED_COLUMNS)),
            "stream header tag 'qeraser-event-log v7' is not 'qeraser-triples v3'",
        ),
        (as_v1, "stream header tag 'qeraser-triples v1' is not 'qeraser-triples v3'"),
        (as_v2, "stream header tag 'qeraser-triples v2' is not 'qeraser-triples v3'"),
        (
            edited((TRIPLES_COLUMNS, PERMUTED_COLUMNS)),
            f"stream header columns {PERMUTED_COLUMNS!r} is not {TRIPLES_COLUMNS!r}",
        ),
        (dropped(BABU_LABELS_LINE), "stream header babu_labels None is not 'D1,D2,D3,D4'"),
        (
            edited((ALISHA_LABELS_LINE, "alisha_labels=D2',D1',D3',D4'")),
            "stream header alisha_labels \"D2',D1',D3',D4'\" is not \"D1',D2',D3',D4'\"",
        ),
        (
            edited((BABU_LABELS_LINE, "babu_labels=D1,D2,D3,D5")),
            "stream header babu_labels 'D1,D2,D3,D5' is not 'D1,D2,D3,D4'",
        ),
    ],
    ids=[
        "mis-tagged", "v1", "v2", "permuted-columns", "no-babu-labels", "reordered-alisha-labels",
        "other-babu-labels",
    ],
)
def test_decode_refuses_a_wrong_tag_or_columns_line_before_any_pass(
    tmp_path, small_config_path, monkeypatch, capsys, rewrite, message
):
    """The header's tag, columns= and labels lines must be the triples file's own, rows read or not.

    A v1 file, whose rows lead with triple_id, and a v2 file, whose rows
    spell each outcome as its label, are refused by their tags.
    """
    path = simulated_triples(tmp_path, small_config_path)
    path.write_text(rewrite(path.read_text()))
    monkeypatch.setattr(events, "_parse_rows", no_work("decode"))
    capsys.readouterr()
    assert cli.main(decode_argv(small_config_path, path, tmp_path / "dec")) == 2
    assert one_line_error(capsys) == f"qeraser: bad triples file {path}: {message}\n"
    assert not (tmp_path / "dec").exists()


def test_decode_refuses_an_event_log(tmp_path, small_config_path, capsys):
    simulated_triples(tmp_path, small_config_path)
    path = tmp_path / "run" / "events.csv"
    capsys.readouterr()
    assert cli.main(decode_argv(small_config_path, path, tmp_path / "dec")) == 2
    assert one_line_error(capsys) == (
        f"qeraser: bad triples file {path}: "
        "stream header tag 'qeraser-event-log v3' is not 'qeraser-triples v3'\n"
    )


@pytest.mark.parametrize(
    "faults",
    [
        # (row, field, value): x_bin -2 is off the screen, block 4 outside the 4 blocks
        [(3, 1, "-2"), (-5, 0, "4")],
        [(3, 0, "4"), (-5, 1, "-2")],
        [(3, 0, "-1"), (-5, 1, "x")],
    ],
    ids=["bin-then-block", "block-then-bin", "block-then-bad-integer"],
)
@pytest.mark.parametrize("mode", ["omniscient", "alisha"])
def test_decode_faults_in_different_passes_keep_their_first_message(
    tmp_path, small_config_path, monkeypatch, capsys, faults, mode
):
    """Two faults in different passes: the message the whole-batch read and decode gives.

    The reader's faults come first, then a block outside the schedule, then
    an x_bin off the screen, whichever pass each sits in.
    """
    path = simulated_triples(tmp_path, small_config_path)
    for row, field, value in faults:
        set_field(path, row, 2, "0")  # D1 and D1', so both decoders select the row
        set_field(path, row, 3, "0")
        set_field(path, row, field, value)
    config = load_config(small_config_path)
    decoder = decode_omniscient if mode == "omniscient" else decode_alisha_only
    try:
        triples = read_triples(path)[0]
    except ValueError as exc:
        want = f"qeraser: bad triples file {path}: {exc}\n"
    else:
        with pytest.raises(ValueError) as exc:
            decoder(triples, config.schedule, config.geometry)
        want = f"qeraser: {exc.value}\n"
    monkeypatch.setattr(events, "_CHUNK_ROWS", 7)
    capsys.readouterr()
    assert cli.main(decode_argv(small_config_path, path, tmp_path / "dec", mode)) == 2
    assert one_line_error(capsys) == want
    assert not (tmp_path / "dec").exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes(capsys):
    assert cli.main(["verify", "--trials", "60", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def break_splitters(monkeypatch, matrix, when=lambda trials: True):
    """Patch verify's arm builder: each call for `trials` arms where when(trials)
    holds returns every recombiner as matrix, its amplitudes untouched."""

    def broken(tap, splitter, theta, chi):
        amplitudes, recombiners = arm_tables(tap, splitter, theta, chi)
        if when(np.size(theta)):
            recombiners = np.broadcast_to(np.array(matrix, dtype=complex), recombiners.shape)
        return amplitudes, recombiners

    monkeypatch.setattr(cli, "arm_tables", broken)


@pytest.mark.parametrize(
    "matrix, residual",
    [
        ([[0.8, 0.7], [-0.7, 0.8]], "1.300e-01"),  # rows of norm 1.13
        ([[0.6, 0.8], [0.8, 0.6]], "9.600e-01"),  # unit rows, not orthogonal
    ],
    ids=["row-norm", "orthogonality"],
)
def test_verify_fails_on_a_nonunitary_splitter(monkeypatch, capsys, matrix, residual):
    break_splitters(monkeypatch, matrix)
    assert cli.main(["verify", "--trials", "20"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL unitarity (max residual {residual}" in out
    assert "FAIL unitarity" in out
    assert "PROPERTY VIOLATION" in out


def test_verify_fails_on_a_nan_residual(monkeypatch, capsys):
    """A NaN residual fails its check; a fold by Python's max would drop it."""
    break_splitters(monkeypatch, [[math.nan, 0.0], [0.0, 1.0]])
    assert cli.main(["verify", "--trials", "20"]) == 1
    out = capsys.readouterr().out
    assert "FAIL unitarity (max residual nan, tol 1e-12)" in out
    assert "PROPERTY VIOLATION" in out


@dataclasses.dataclass(frozen=True)
class HoleyEnvelope:
    """Flat illumination with a NaN in its first bin."""

    def profile(self, x):
        values = np.ones_like(np.asarray(x, dtype=float))
        values.flat[0] = math.nan
        return values


def test_property_suite_carries_a_nan_residual():
    geom = dataclasses.replace(default_config().geometry, n_bins=8)
    worst = dict(cli.run_property_suite(20, 0, geom, HoleyEnvelope()))
    for name in ("normalization", "single-cancellation", "marginal-invariance"):
        assert math.isnan(worst[name])
    assert max(worst["unitarity"], worst["arm-isometry"], worst["pair-cancellation"]) <= EXACT


@pytest.mark.parametrize("trials, code", [(1025, 1), (1024, 0)])
def test_verify_passes_cover_the_last_trial(monkeypatch, capsys, trials, code):
    """1,025 trials leave one trial alone in the last per-arm pass; breaking
    only single-arm calls fails verify there, and passes at 1,024 trials."""
    break_splitters(monkeypatch, [[0.6, 0.8], [0.8, 0.6]], when=lambda n: n == 1)
    assert cli.main(["verify", "--trials", str(trials)]) == code
    out = capsys.readouterr().out
    assert ("FAIL unitarity (max residual 9.600e-01" in out) == (code == 1)


@settings(max_examples=12, deadline=None)
@given(
    trials=st.integers(min_value=1, max_value=1200),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    envelope=st.sampled_from([UniformEnvelope(), GaussianEnvelope(1.5e-3)]),
    n_bins=st.sampled_from([3, 64, 256]),
)
def test_property_suite_equals_the_loop(trials, seed, envelope, n_bins):
    """The stacked suite and the one-trial-at-a-time loop both hold every identity."""
    geom = dataclasses.replace(default_config().geometry, n_bins=n_bins)
    stacked = cli.run_property_suite(trials, seed, geom, envelope)
    loop = property_suite_loop(trials, seed, geom, envelope)
    assert [name for name, _ in stacked] == [name for name, _ in loop]
    for (_, new), (_, old) in zip(stacked, loop):
        assert 0.0 <= new <= EXACT and 0.0 <= old <= EXACT


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


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("babu", "tapp", 0.9, "unknown key experiment.babu.tapp"),
        ("alisha", "tap_p", "0.5", "experiment.alisha.tap_p must be a number, got '0.5'"),
        ("geometry", "n_bins", 256.7, "experiment.geometry.n_bins must be an integer, got 256.7"),
        ("schedule", "block_size", "10000", "experiment.schedule.block_size must be an integer"),
        ("schedule", "bits", [], "schedule bits must not be empty"),
    ],
)
def test_strict_config_exits_2(tmp_path, capsys, section, key, value, message):
    doc = config_to_dict(default_config())
    doc["experiment"][section][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["patterns", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1


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


SWEEP_GRIDS = {
    "default": [],
    "edges": [
        "--tap", "0,1", "--splitter", "0,1",
        "--tap-alisha", "0,1", "--theta-alisha", "0.0,0.5235987755982988",
    ],
}


@pytest.mark.parametrize("grid", sorted(SWEEP_GRIDS))
def test_sweep_equals_the_per_table_fits(tmp_path, config_path, grid):
    """The coefficient-space sweep against one joint table and fit_fringes per point."""
    argv = ["sweep", "--config", str(config_path), "--out", str(tmp_path), *SWEEP_GRIDS[grid]]
    assert cli.main(argv) == 0
    rows = data_rows(tmp_path / "sweep.csv")

    args = cli.build_parser().parse_args(argv)
    config = default_config()

    def axis(text, default):
        return [float(v) for v in text.split(",")] if text else [default]

    points = itertools.product(
        axis(args.theta_alisha, config.alisha.theta),
        axis(args.chi_alisha, config.alisha.chi),
        axis(args.tap_alisha, config.alisha.tap_probability),
        axis(args.theta, None),
        axis(args.chi, None),
        axis(args.tap, None),
        [v == "1" for v in args.splitter.split(",")],
    )
    expected = [row.split(",") for row in sweep_rows(list(points), config.geometry, config.envelope, {})]
    assert len(rows) == len(expected)
    for row, ref in zip(rows, expected):
        assert row[:7] == ref[:7] and row[11:13] == ref[11:13]  # settings, cancellation
        for new, old in zip(row[7:11], ref[7:11]):
            assert (new == "nan") == (old == "nan")
            if new != "nan":
                assert abs(float(new) - float(old)) <= 1e-14
        assert max(float(row[13]), float(row[14])) <= EXACT
        assert max(float(ref[13]), float(ref[14])) <= EXACT
    # a tap of 1 on either arm empties every erasing slice: 3/4 of the edges grid
    assert sum(row[7] == "nan" for row in rows) == (240 if grid == "edges" else 0)


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


@pytest.mark.parametrize("value", ["2", "0.5", "1.0", "-1", "true", "1,2"])
def test_sweep_splitter_takes_only_0_and_1(config_path, tmp_path, capsys, value):
    argv = ["sweep", "--config", str(config_path), "--out", str(tmp_path / "s"), "--splitter", value]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--splitter values must be 0 or 1" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "s" / "sweep.csv").exists()
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tap", "1.5", "tap probability 1.5 outside [0, 1]"),
        ("--tap-alisha", "-0.1", "tap probability -0.1 outside [0, 1]"),
        ("--theta", "nan", "theta must be finite"),
        ("--chi-alisha", "inf", "chi must be finite"),
    ],
)
def test_sweep_refuses_an_arm_setting_before_any_work(
    config_path, tmp_path, monkeypatch, capsys, flag, value, message
):
    def work(*args, **kwargs):
        raise AssertionError("sweep started work before checking its settings")

    monkeypatch.setattr(cli, "_sweep_rows", work)
    argv = ["sweep", "--config", str(config_path), "--out", str(tmp_path / "s"), flag, value]
    assert cli.main(argv) == 2
    assert one_line_error(capsys) == f"qeraser: {message}\n"
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("n_bins", [1, 2])
def test_sweep_refuses_fewer_bins_than_fringe_parameters(tmp_path, capsys, n_bins):
    doc = config_to_dict(default_config())
    doc["experiment"]["geometry"]["n_bins"] = n_bins
    path = tmp_path / "few.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 2
    assert one_line_error(capsys) == (
        f"qeraser: invalid config {path}: experiment.geometry.n_bins must be at least 3 "
        f"(the fringe fit has three parameters), got {n_bins}\n"
    )
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("d", [7e-211, 1e-9])
def test_a_screen_too_narrow_for_a_fringe_is_refused_where_one_is_fitted(tmp_path, capsys, d):
    """Where 1 and cos u round to one column over the bins, sweep and decode exit 2 in one line."""
    doc = config_to_dict(default_config())
    doc["experiment"]["geometry"]["d"] = d
    doc["experiment"]["schedule"] = {"bits": [1, 0], "block_size": 10}
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 0
    capsys.readouterr()
    for argv in (["sweep"], ["decode", "--triples", str(tmp_path / "sim" / "triples.csv")]):
        out = tmp_path / argv[0]
        assert cli.main([*argv, "--config", str(path), "--out", str(out)]) == 2
        assert one_line_error(capsys) == (
            "qeraser: the fringe fit is singular: the screen spans too little of a fringe\n"
        )
        assert not out.exists()


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


@pytest.mark.parametrize("command", ["patterns", "simulate", "verify", "decode", "sweep"])
def test_command_help_prints_its_usage_and_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: qeraser {command} [-h]")


@pytest.mark.parametrize(
    "argv, reason",
    [
        ("simulate --config c --out o --seed nan", "argument --seed: invalid int value: 'nan'"),
        ("verify --trials 1.5", "argument --trials: invalid int value: '1.5'"),
        (
            "decode --config c --triples t --out o --mode bob",
            "argument --mode: invalid choice: 'bob' (choose from 'omniscient', 'alisha')",
        ),
        ("sweep --config c", "the following arguments are required: --out"),
        ("verify --bogus", "unrecognized arguments: --bogus"),
        ("", "the following arguments are required: command"),
    ],
    ids=["bad-int", "fractional-int", "bad-choice", "missing", "unknown", "no-command"],
)
def test_a_usage_error_is_one_line_and_exit_2(tmp_path, monkeypatch, capsys, argv, reason):
    """argparse's errors end like every other refusal: no usage block, nothing written."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv.split()) == 2
    assert one_line_error(capsys) == f"qeraser: {reason}\n"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# flag fuzz
# ---------------------------------------------------------------------------

# every value-taking flag is fuzzed with these besides its own ordinary values
FLAG_EXTREMES = (
    "0",
    "-1",
    *(str(sign * (10**18 + d)) for sign in (1, -1) for d in (-1, 0, 1)),
    "nan",
    "inf",
    "-inf",
    "1e-320",
    "1.5",
    "x",
    "",
)


def flag_values(*ordinary, skip=lambda number: False):
    """A flag's extremes, less the numbers skip picks out, or as often one of its ordinary values."""

    def kept(text):
        try:
            return not skip(float(text))
        except ValueError:
            return True

    return st.sampled_from([v for v in FLAG_EXTREMES if kept(v)]) | st.sampled_from(ordinary)


def sweep_axis(*ordinary):
    return st.lists(flag_values(*ordinary), min_size=1, max_size=3).map(",".join)


# each command's value-taking flags; every drawn run stays at a few thousand records
# or is refused up front: no more than 100 trials, at most three values per sweep axis,
# and no background rate at which only the machine's free disk would stop the run
FUZZED_FLAGS = {
    "simulate": {
        "--seed": flag_values("1", "7"),
        "--window-ns": flag_values("3", "10"),
        "--background-rate": flag_values("1e-3", "0.01", skip=lambda rate: 0.1 < rate < 1e14),
    },
    "verify": {
        "--trials": flag_values("1", "10", "50", skip=lambda trials: trials > 100),
        "--seed": flag_values("1", "3"),
    },
    "decode": {"--mode": flag_values("omniscient", "alisha")},
    "sweep": {
        **{flag: sweep_axis("0", "0.5", "3.5") for flag in ("--theta", "--chi", "--theta-alisha", "--chi-alisha")},
        **{flag: sweep_axis("0", "0.25", "1") for flag in ("--tap", "--tap-alisha")},
        "--splitter": sweep_axis("0", "1"),
    },
}
REQUIRED_FLAGS = {
    "simulate": ("--config", "--out"),
    "verify": (),
    "decode": ("--config", "--triples", "--out"),
    "sweep": ("--config", "--out"),
}


@st.composite
def flag_cases(draw):
    """(command, [(flag, value, as one --flag=value word)], required flag left out, unknown flag)."""
    command = draw(st.sampled_from(sorted(FUZZED_FLAGS)))
    values = []
    for flag, strategy in FUZZED_FLAGS[command].items():
        # verify's default 1,000 trials is too slow to draw often
        if flag == "--trials" or draw(st.booleans()):
            values.append((flag, draw(strategy), draw(st.booleans())))
    required = REQUIRED_FLAGS[command]
    missing = draw(st.sampled_from(required)) if required and draw(st.booleans()) else None
    return command, values, missing, draw(st.booleans())


@pytest.fixture(scope="module")
def flag_fuzz_inputs(tmp_path_factory):
    """A 2-block x 10-triple config at 16 bins, the triples.csv it simulates, and a scratch directory."""
    base = tmp_path_factory.mktemp("flags")
    config = default_config()
    config = dataclasses.replace(
        config,
        geometry=dataclasses.replace(config.geometry, n_bins=16),
        schedule=SwitchSchedule(bits=(1, 0), block_size=10),
    )
    path = base / "config.json"
    save_config(config, path)
    assert cli.main(["simulate", "--config", str(path), "--out", str(base / "sim")]) == 0
    return path, base / "sim" / "triples.csv", base


@settings(max_examples=300, deadline=None)
@given(case=flag_cases())
def test_every_flag_value_exits_0_or_2_with_one_line(flag_fuzz_inputs, case):
    """cli.main returns 0 or 2 (or verify's 1) and raises nothing, for every flag value.

    A refusal, a bad, missing or unknown flag included, writes one
    qeraser: line to stderr and creates no --out.
    """
    config, triples, base = flag_fuzz_inputs
    command, values, missing, unknown = case
    out = Path(tempfile.mkdtemp(dir=base)) / "out"
    given_paths = {"--config": str(config), "--triples": str(triples), "--out": str(out)}
    argv = [command]
    for flag in REQUIRED_FLAGS[command]:
        if flag != missing:
            argv += [flag, given_paths[flag]]
    for flag, value, joined in values:
        argv += [f"{flag}={value}"] if joined else [flag, value]
    if unknown:
        argv.append("--bogus")
    assert_exits_0_or_2_with_one_line(argv, out.parent)
    shutil.rmtree(out.parent)


def assert_exits_0_or_2_with_one_line(argv, out_parent) -> tuple[int, str]:
    """cli.main(argv)'s return and stderr: 0 or 2 (1 only from verify), nothing raised.

    On 2, stderr is one qeraser: line and out_parent, --out's parent, is
    still empty.
    """
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    err = stderr.getvalue()
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), argv
    if code == 2:
        assert err.startswith("qeraser: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert list(out_parent.iterdir()) == [], argv
    return code, err


@pytest.mark.parametrize("theta", ["-0.5,0.5", "-.5,0.5"])
def test_a_value_that_starts_with_minus_and_a_digit_is_a_value(tmp_path, config_path, capsys, theta):
    """--theta -0.5,0.5 is the axis list, as --theta=-0.5,0.5 is, never an option: the sweep runs."""
    outs = []
    for words in (["--theta", theta], [f"--theta={theta}"]):
        outs.append(tmp_path / str(len(outs)))
        argv = ["sweep", "--config", str(config_path), "--out", str(outs[-1]), *words]
        assert cli.main([*argv, "--chi", "0", "--tap", "0"]) == 0
        assert capsys.readouterr().out.endswith("(4 grid points)\n")
    assert {float(row[0]) for row in data_rows(outs[0] / "sweep.csv")} == {-0.5, 0.5}
    assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--background-rate", "-1e-3",
         "--background-rate -0.001: the background rate must be finite and non-negative"),
        ("--background-rate", "-.5", "--background-rate -0.5: the background rate must be finite and non-negative"),
        ("--seed", "-x", "argument --seed: expected one argument"),
    ],
)
def test_a_negative_number_after_its_flag_reaches_the_command(
    tmp_path, small_config_path, monkeypatch, capsys, flag, value, reason
):
    """A word of '-' and a digit after a flag is its value, refused by the command naming it."""
    monkeypatch.setattr(cli, "event_chunks", no_work("simulate"))
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(small_config_path), "--out", str(out), flag, value]) == 2
    assert one_line_error(capsys) == f"qeraser: {reason}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# config and stream file fuzz
# ---------------------------------------------------------------------------


def small_document():
    """fuzz_base's document at 16 bins and 4 blocks of 5 triples, so a run is a few hundred records."""
    doc = fuzz_base()
    doc["experiment"]["geometry"]["n_bins"] = 16
    doc["experiment"]["schedule"] = {"bits": [1, 0, 1, 0], "block_size": 5}
    return doc


@st.composite
def mutated_documents(draw):
    """small_document with one number or count set to a small value, which may or may not read."""
    doc = small_document()
    node, key = node_at(doc, draw(st.sampled_from(NUMBERS + INTEGERS)))
    node[key] = draw(st.integers(-1, 20) | st.floats(-1.0, 40.0))
    return doc


# each command's flags besides --config and --out: a small grid, a few trials
CONFIG_FUZZ_FLAGS = {
    "patterns": [],
    "simulate": [],
    "sweep": ["--theta", "0,1", "--chi", "0", "--tap", "0.5"],
    "verify": ["--trials", "10"],
}


@settings(max_examples=200, deadline=None)
@given(
    doc=malformed_documents(small_document) | mutated_documents(),
    command=st.sampled_from(sorted(CONFIG_FUZZ_FLAGS)),
)
def test_every_config_exits_0_or_2_with_one_line(flag_fuzz_inputs, doc, command):
    """A malformed or mutated config through each command that reads one: exit 0 or 2 (or verify's 1).

    A refusal is one qeraser: line and leaves --out's parent empty.
    """
    work = Path(tempfile.mkdtemp(dir=flag_fuzz_inputs[2]))
    config = work / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    (work / "run").mkdir()
    argv = [command, "--config", str(config), *CONFIG_FUZZ_FLAGS[command]]
    if command != "verify":
        argv += ["--out", str(work / "run" / "out")]
    assert_exits_0_or_2_with_one_line(argv, work / "run")
    shutil.rmtree(work)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(MUTATIONS),
    mode=st.sampled_from(["omniscient", "alisha"]),
)
def test_every_triples_file_exits_0_or_2_with_one_line(flag_fuzz_inputs, seed, kind, mode):
    """A damaged 2-block x 10-triple triples.csv through decode: exit 0 or 2, a refusal one line.

    A refusal leaves --out's parent empty, and a signed field is always
    refused as a bad triples file.
    """
    config, triples, base = flag_fuzz_inputs
    work = Path(tempfile.mkdtemp(dir=base))
    path = work / "triples.csv"
    rng = np.random.default_rng(seed)
    path.write_bytes(mutate_stream_file(triples.read_bytes(), rng, kind, (2, 3)))  # babu, alisha
    (work / "run").mkdir()
    argv = ["decode", "--config", str(config), "--triples", str(path), "--mode", mode]
    code, err = assert_exits_0_or_2_with_one_line([*argv, "--out", str(work / "run" / "out")], work / "run")
    if kind == "signed":
        assert code == 2 and err.startswith(f"qeraser: bad triples file {path}: bad integer '-"), err
    shutil.rmtree(work)
