import json
import os

import pytest

from domcalc.cli import main

from conftest import GOLDEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_prints_canonical_model(capsys, aircraft_path):
    code, out, err = run_cli(capsys, "parse", str(aircraft_path))
    assert code == 0
    assert out == (GOLDEN / "aircraft_canonical.dom").read_text()


def test_parse_reports_errors_with_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.dom"
    bad.write_text("part { nope }")
    code, out, err = run_cli(capsys, "parse", str(bad))
    assert code == 1
    assert "E001" in err


def test_parse_missing_file(capsys):
    code, _, err = run_cli(capsys, "parse", "/no/such/file.dom")
    assert code == 1
    assert "error" in err


def test_check_ok(capsys, aircraft_path):
    code, out, _ = run_cli(capsys, "check", str(aircraft_path))
    assert code == 0
    assert out.strip() == "ok"


def test_check_failure_exits_2(capsys, tmp_path):
    bad = tmp_path / "dangling.dom"
    bad.write_text("part PP { id PPI; mereo ZZI; }")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "E101" in err


def test_describe_single_sort(capsys, aircraft_path):
    code, out, _ = run_cli(capsys, "describe", str(aircraft_path), "--sort", "PP")
    assert code == 0
    assert "## PP" in out
    assert "uid_PP: PP → PPI" in out
    assert "mereo_PP: PP → DPI" in out


def test_describe_all_parts(capsys, aircraft_path):
    code, out, _ = run_cli(capsys, "describe", str(aircraft_path))
    assert code == 0
    for sort in ("AC", "PP", "TD", "DP"):
        assert f"## {sort}" in out


def test_compile_emits_text_and_json(capsys, tmp_path, aircraft_path):
    out_json = tmp_path / "graph.json"
    code, out, _ = run_cli(capsys, "compile", str(aircraft_path),
                           "--json", str(out_json))
    assert code == 0
    assert out == (GOLDEN / "aircraft_process.txt").read_text()
    assert out.count("≡") >= 3  # three behaviour definitions
    assert out_json.read_text() == (GOLDEN / "aircraft_graph.json").read_text()


def test_simulate_zero_steps(capsys, tmp_path, aircraft_path, aircraft_script_path):
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(
        capsys, "simulate", str(aircraft_path),
        "--script", str(aircraft_script_path), "--steps", "0", "--seed", "1",
        "--trace", str(trace_path))
    assert code == 0
    assert trace_path.read_text() == ""
    assert json.loads(out)["all_pass"] is True


def test_simulate_reports_verdicts(capsys, tmp_path, aircraft_path,
                                   aircraft_script_path):
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(
        capsys, "simulate", str(aircraft_path),
        "--script", str(aircraft_script_path), "--steps", "20", "--seed", "7",
        "--trace", str(trace_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["all_pass"] is True
    assert summary["verdicts"][0]["name"] == "displays_track_recordings"
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert {line["kind"] for line in lines} >= {"send", "receive", "recursion"}
    assert all(set(line) == {"step", "kind", "channel", "process", "payload"}
               for line in lines)


def test_simulate_byte_stable(capsys, aircraft_path, aircraft_script_path):
    args = ("simulate", str(aircraft_path), "--script", str(aircraft_script_path),
            "--steps", "15", "--seed", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_simulate_uncovered_channel(capsys, tmp_path, aircraft_path):
    script = tmp_path / "partial.json"
    script.write_text(json.dumps({"attr_LO_ch": [[0, "1 deg"]]}))
    code, _, err = run_cli(
        capsys, "simulate", str(aircraft_path),
        "--script", str(script), "--steps", "5", "--seed", "0")
    assert code == 1
    assert "error" in err


def _with_lo_track(track):
    return lambda raw: json.dumps(dict(raw, attr_LO_ch=track))


@pytest.mark.parametrize("dom, make_script", [
    pytest.param(None, lambda raw: '{"attr_LO_ch": [[0, ', id="malformed-json"),
    pytest.param(None, lambda raw: json.dumps(sorted(raw)), id="json-list"),
    pytest.param(None, _with_lo_track([[0, "abc deg"]]), id="bad-value"),
    pytest.param(None, _with_lo_track({"points": [[0, "10 deg"]], "cycle": "x"}),
                 id="cycle-not-int"),
    pytest.param(None, _with_lo_track({"points": [[0, "10 deg"]], "cycle": 0}),
                 id="cycle-zero"),
    pytest.param(None, _with_lo_track({"points": [[0, "10 deg"]], "cycle": -3}),
                 id="cycle-negative"),
    pytest.param(None, _with_lo_track([[0, "10 deg"], [-5, "11 deg"]]),
                 id="negative-step"),
    pytest.param(b"part \xff\xfe {}", json.dumps, id="dom-not-utf8"),
])
def test_simulate_bad_input_exits_1_without_traceback(
        capsys, tmp_path, aircraft_path, aircraft_script_path, dom, make_script):
    script = tmp_path / "script.json"
    script.write_text(make_script(json.loads(aircraft_script_path.read_text())))
    model = aircraft_path
    if dom is not None:
        model = tmp_path / "bad.dom"
        model.write_bytes(dom)
    code, _, err = run_cli(capsys, "simulate", str(model), "--script", str(script),
                           "--steps", "5", "--seed", "0")
    assert code == 1
    assert err.startswith("error: ")


def test_units_check_newton(capsys):
    code, out, _ = run_cli(capsys, "units", "check", "kg*m/s^2")
    assert code == 0
    assert out.strip() == "newton: m^1 kg^1 s^-2"


def test_units_check_kind_expression(capsys):
    code, out, _ = run_cli(capsys, "units", "check", "Time - Time")
    assert code == 0
    assert out.strip().startswith("TimeInterval")


def test_units_check_rejection_exits_2(capsys):
    code, out, _ = run_cli(capsys, "units", "check", "Time + Time")
    assert code == 2
    assert "E201" in out


def test_color_disabled_by_env(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.dom"
    bad.write_text("part PP { id PPI; mereo ZZI; }")
    monkeypatch.setenv("DOMCALC_COLOR", "0")
    _, _, err = run_cli(capsys, "check", str(bad))
    assert "\x1b[" not in err


def test_usage_error_exits_1(capsys):
    assert main(["no-such-command"]) == 1


def test_simulate_stdout_golden(capsys, aircraft_path, aircraft_script_path):
    code, out, _ = run_cli(
        capsys, "simulate", str(aircraft_path),
        "--script", str(aircraft_script_path), "--steps", "20", "--seed", "7")
    assert code == 0
    assert out == (GOLDEN / "aircraft_verdicts.json").read_text()


def test_describe_unknown_sort_exits_1(capsys, aircraft_path):
    code, _, err = run_cli(capsys, "describe", str(aircraft_path), "--sort", "ZZ")
    assert code == 1
    assert "unknown sort" in err
