"""Command line driver: record streams, exit codes, rerun determinism, exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracgeo
from fracgeo.cli import main
from fracgeo.fixtures import FIXTURE_NAMES

import oracles

ALPHA = 0.5


def run(tmp_path, argv, name="out.jsonl"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return code, records, out


def test_halpha_ball2d_matches_disk_value(tmp_path):
    code, records, _ = run(
        tmp_path, ["halpha", "--body", "ball2d", "--count", "8"]
    )
    assert code == 0
    assert len(records) == 8
    exact = oracles.disk_halpha(ALPHA)
    values = np.array([r["value"] for r in records])
    assert np.abs(values / exact - 1.0).max() < 0.005
    # same curvature everywhere on a circle, up to node placement noise
    assert np.ptp(values) < 0.01 * values.mean()
    first = records[0]
    assert first["command"] == "halpha"
    assert first["body"] == "ball2d"
    assert first["form"] == "chord"
    assert "threads" not in first
    assert len(first["point"]) == 2


def test_halpha_boundary_form_runs(tmp_path):
    code, records, _ = run(
        tmp_path,
        [
            "halpha", "--body", "ball2d", "--form", "boundary",
            "--alpha", "0.75", "--count", "4",
            "--surface-resolution", "256",
        ],
    )
    assert code == 0
    values = np.array([r["value"] for r in records])
    assert np.all(np.isfinite(values)) and np.all(values > 0)


@pytest.mark.parametrize("body", FIXTURE_NAMES)
def test_halpha_forms_give_identical_values(tmp_path, body):
    values = {}
    for form in ("chord", "boundary"):
        code, records, _ = run(
            tmp_path, ["halpha", "--body", body, "--form", form], name=f"{form}.jsonl"
        )
        assert code == 0
        values[form] = [r["value"] for r in records]
    assert values["chord"] == values["boundary"]


def test_halpha_body_file(tmp_path):
    body = tmp_path / "box.json"
    body.write_text(json.dumps(
        {"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [0, 1]]}
    ))
    code, records, _ = run(
        tmp_path, ["halpha", "--body", str(body), "--count", "4"]
    )
    assert code == 0
    assert all(r["body"] == "box" for r in records)


def test_malformed_json_body_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json at all")
    assert main(["halpha", "--body", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_body_description_exits_2(tmp_path):
    bad = tmp_path / "twopoints.json"
    bad.write_text(json.dumps({"type": "polygon", "vertices": [[0, 0], [1, 0]]}))
    assert main(["halpha", "--body", str(bad)]) == 2


TETRA = '[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]'


@pytest.mark.parametrize("text", [
    '[1, 2]',
    '{"type": "polygon"}',
    '{"type": "ball", "radius": "abc"}',
    '{"type": "hull3d", "vertices": %s, "faces": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 9]]}'
    % TETRA,
    '{"type": "hull3d", "vertices": %s, "faces": [[0, 1, 2], [0, 1]]}' % TETRA,
    '{"type": "hull3d", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [NaN, 0, 1]]}',
    '{"type": "hull3d", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]}',
    '{"type": "ball", "radius": NaN}',
    '{"type": "ball", "radius": 1e400}',
    '{"type": "ball", "center": [NaN, 0]}',
    '{"type": "ball", "dim": 2.5}',
], ids=["list", "no-vertices", "text-radius", "face-index", "ragged-faces", "nan-vertex",
        "flat-hull", "nan-radius", "inf-radius", "nan-center", "fractional-dim"])
def test_malformed_body_file_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for command in ("halpha", "seminorm", "flow"):
        assert main([command, "--body", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("form", ["chord", "boundary"])
@pytest.mark.parametrize("body", ["square", "ball2d", "cube", "ball3d"])
def test_alpha_outside_the_unit_interval_exits_2(body, form, capsys):
    for alpha in ("0", "1", "1.5", "-0.2"):
        argv = ["halpha", "--body", body, "--form", form, "--alpha", alpha, "--count", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: alpha must lie in (0,1)" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["halpha", "--body", "square", "--count", "0"],
    ["halpha", "--body", "square", "--count", "-2"],
    ["flow", "--body", "ball2d", "--markers", "16", "--report-states", "0"],
    ["verify", "--suite", "classical", "--seed", "-1"],
    ["seminorm", "--body", "ball2d", "--seed", "-1"],
    ["seminorm", "--body", "ball2d", "--p", "nan"],
    ["seminorm", "--body", "ball2d", "--p", "inf"],
], ids=lambda argv: " ".join([argv[0], *argv[-2:]]))
def test_out_of_range_arguments_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unknown_fixture_exits_2(capsys):
    assert main(["halpha", "--body", "nosuchbody"]) == 2
    err = capsys.readouterr().err
    assert "nosuchbody" in err and "ball2d" in err


def test_bad_choices_rejected_by_parser():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--profile", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["halpha"])  # --body is required
    assert exc.value.code == 2
    # the flow's step settings are fixed, not flags
    for flag, value in (("--cfl", "0.5"), ("--resample-every", "5"), ("--max-steps", "10")):
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--body", "ball2d", flag, value])
        assert exc.value.code == 2


def test_halpha_takes_no_direction_count():
    # the chord form is exact on every body, so there is no rule to size
    with pytest.raises(SystemExit) as exc:
        main(["halpha", "--body", "cube", "--resolution", "10"])
    assert exc.value.code == 2


def test_flow_takes_no_direction_count():
    # the flow's chord sums are exact, so there is no rule to size
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--body", "ball2d", "--resolution", "480"])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_every_exported_name_resolves():
    missing = [name for name in fracgeo.__all__ if not hasattr(fracgeo, name)]
    assert missing == []


def test_seminorm_cap_on_stdout(capsys):
    # default emitter is stdout, summary goes to stderr
    assert main(["seminorm", "--body", "ball2d"]) == 0
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert len(records) == 1
    assert records[0]["command"] == "seminorm"
    assert records[0]["value"] > 0
    assert "gagliardo" in captured.err


def test_seminorm_seed_controls_field(tmp_path):
    args = ["seminorm", "--body", "ball2d", "--field", "bump"]
    _, first, _ = run(tmp_path, args + ["--seed", "3"], "a.jsonl")
    _, again, _ = run(tmp_path, args + ["--seed", "3"], "b.jsonl")
    _, other, _ = run(tmp_path, args + ["--seed", "4"], "c.jsonl")
    assert first[0]["value"] == again[0]["value"]
    assert first[0]["value"] != other[0]["value"]


def test_verify_classical_passes(tmp_path):
    code, records, _ = run(
        tmp_path, ["verify", "--suite", "classical", "--seed", "7"]
    )
    assert code == 0
    assert records
    for rec in records:
        assert rec["command"] == "verify"
        assert rec["passed"]
        assert rec["constant_provenance"] in (
            "paper-explicit", "fitted", "derived-closed-form", "none"
        )


def test_verify_rerun_byte_identical(tmp_path):
    argv = ["verify", "--suite", "classical"]
    _, _, first = run(tmp_path, argv, "a.jsonl")
    _, _, second = run(tmp_path, argv, "b.jsonl")
    assert first.read_bytes() == second.read_bytes()


def test_flow_circle_summary_and_files(tmp_path):
    csv = tmp_path / "trace.csv"
    svg = tmp_path / "front.svg"
    code, records, _ = run(
        tmp_path,
        [
            "flow", "--body", "ball2d", "--markers", "48",
            "--report-states", "10",
            "--csv", str(csv), "--svg", str(svg),
        ],
    )
    assert code == 0
    summaries = [r for r in records if r["command"] == "flow-summary"]
    states = [r for r in records if r["command"] == "flow"]
    assert len(summaries) == 1 and states
    assert len(states) <= 12  # stride rounding can add a couple past the cap
    summary = summaries[0]
    assert summary["ending"] == "extinct"
    assert summary["t_star"] == pytest.approx(
        oracles.circle_extinction_time(ALPHA), rel=0.03
    )
    assert csv.read_text().startswith("step,t,perimeter,area,dt,h_min,h_max")
    assert "<svg" in svg.read_text()


def test_python_dash_m_runs_the_command_line():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "fracgeo", "--help"], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0
    assert "verify" in done.stdout and done.stdout.startswith("usage: fracgeo")
