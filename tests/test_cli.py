import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

from domcalc.analysis import check_wellformed
from domcalc.cli import build_parser, main
from domcalc.compiler import CompileError, compile_model
from domcalc.dsl import parse_model

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


# A composite, a set mereology, a product, a component and a material.
EVERY_FORM = """part R composite(A, B) { id RI; mereo empty; }
part A { id AI; mereo set(BI); attr X : m reactive; }
part B { id BI; mereo AI x RI; attr V : m autonomous; }
component C { id CI; attr W : kg static init 1; }
material G { attr Y : kg inert; }
"""

EVERY_FORM_DESCRIBED = {
    "R": """## R

R is a composite part observed into 2 part sorts: A, B.

    type A, B
    value obs_A: R → A
    value obs_B: R → B

Part R has the unique identifier type RI.

    type RI
    value uid_R: R → RI

Part R has the empty mereology.

    value mereo_R: R → ()

Part R has no attributes.


""",
    "A": """## A

Part A has the unique identifier type AI.

    type AI
    value uid_A: A → AI

Part A is related to the parts identified by BI.

    value mereo_A: A → BI-set

Part A has attributes X (reactive m).

    type X
    value attr_X: A → AT × AV  [AT: m, reactive]

""",
    "B": """## B

Part B has the unique identifier type BI.

    type BI
    value uid_B: B → BI

Part B is related to the parts identified by AI, RI.

    value mereo_B: B → AI×RI

Part B has attributes V (autonomous m).

    type V
    value attr_V: B → AT × AV  [AT: m, autonomous]

""",
    "C": """## C

Component C has the unique identifier type CI.

    type CI
    value uid_C: C → CI

Component C has attributes W (static kg).

    type W
    value attr_W: C → AT × AV  [AT: kg, static]

""",
    "G": """## G

Material G has attributes Y (inert kg).

    type Y
    value attr_Y: G → AT × AV  [AT: kg, inert]

""",
}


@pytest.mark.parametrize("sort", [None, "R", "A", "B", "C", "G"])
def test_describe_output_of_every_form(capsys, tmp_path, sort):
    path = tmp_path / "forms.dom"
    path.write_text(EVERY_FORM, encoding="utf-8")
    code, out, err = run_cli(capsys, "describe", str(path), *(("--sort", sort) if sort else ()))
    assert (code, err) == (0, "")
    sorts = [sort] if sort else ["R", "A", "B"]
    assert out == "".join(EVERY_FORM_DESCRIBED[name] for name in sorts)


def test_compile_emits_text_and_json(capsys, tmp_path, aircraft_path):
    out_json = tmp_path / "graph.json"
    code, out, _ = run_cli(capsys, "compile", str(aircraft_path),
                           "--json", str(out_json))
    assert code == 0
    assert out == (GOLDEN / "aircraft_process.txt").read_text()
    assert out.count("≡") >= 3  # three behaviour definitions
    assert out_json.read_text() == (GOLDEN / "aircraft_graph.json").read_text()


def test_two_root_model_checks_ok_but_does_not_compile(capsys, tmp_path,
                                                       aircraft_script_path):
    # The check passes each part on its own; a whole-model compile needs one root.
    two_roots = tmp_path / "two_roots.dom"
    two_roots.write_text("part A { id AI; mereo empty; }\npart B { id BI; mereo empty; }\n")
    assert run_cli(capsys, "check", str(two_roots)) == (0, "ok\n", "")
    for command, *options in (["compile"], ["simulate", "--script", str(aircraft_script_path),
                                            "--steps", "1", "--seed", "0"]):
        code, out, err = run_cli(capsys, command, str(two_roots), *options)
        assert (code, out) == (2, "")
        assert "E302: expected one root part, found ['A', 'B']" in err


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


def test_simulate_uncovered_channel_names_the_channel(capsys, tmp_path, aircraft_path):
    script = tmp_path / "partial.json"
    script.write_text(json.dumps({"attr_LO_ch": [[0, "1 deg"]]}))
    code, out, err = run_cli(
        capsys, "simulate", str(aircraft_path),
        "--script", str(script), "--steps", "5", "--seed", "0")
    assert (code, out) == (1, "")
    assert err == "error: the script has no track for external channel 'attr_LA_ch'\n"


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
    pytest.param(None, _with_lo_track([[0, "10 deg"], [2.7, "11 deg"]]), id="step-float"),
    pytest.param(None, _with_lo_track([[0, "1e5000 deg"]]), id="value-beyond-bound"),
    pytest.param(None, _with_lo_track({"points": [[0, "10 deg"], [45, "99 deg"]], "cycle": 40}),
                 id="point-past-cycle"),
    pytest.param(None, _with_lo_track([[0, "10 deg"], [0, "20 deg"]]), id="two-values-at-step"),
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


def test_simulate_into_closed_pipe_exits_1_without_traceback(
        aircraft_path, aircraft_script_path):
    # As ``domcalc simulate … | head -1`` when head has already exited.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    try:
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from domcalc.cli import main; sys.exit(main())",
             "simulate", str(aircraft_path), "--script", str(aircraft_script_path),
             "--steps", "5", "--seed", "0"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "BrokenPipeError" not in done.stderr


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", ["simulate", "compile"])
def test_output_path_errors_exit_1_without_traceback(
        capsys, tmp_path, aircraft_path, aircraft_script_path, command, target):
    path = str(tmp_path / "nodir" / "out" if target == "missing-dir" else tmp_path)
    if command == "simulate":
        args = ("simulate", str(aircraft_path), "--script", str(aircraft_script_path),
                "--steps", "5", "--seed", "0", "--trace", path)
    else:
        args = ("compile", str(aircraft_path), "--json", path)
    code, _, err = run_cli(capsys, *args)
    assert code == 1
    assert err.startswith("error: ") and path in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_trace_write_failing_midway_exits_1_without_verdicts(
        capsys, aircraft_path, aircraft_script_path):
    # The file opens, and the first chunk written fails: no space left.
    code, out, err = run_cli(capsys, "simulate", str(aircraft_path), "--script",
                             str(aircraft_script_path), "--steps", "2000", "--seed", "0",
                             "--trace", "/dev/full")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_simulate_negative_steps_exits_1(capsys, aircraft_path, aircraft_script_path):
    code, out, err = run_cli(capsys, "simulate", str(aircraft_path), "--script",
                             str(aircraft_script_path), "--steps", "-5", "--seed", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--steps" in err


@pytest.mark.parametrize("expr", ["km^10000", "km^100000000", "((kdeg^99)^99)^99"])
def test_units_check_size_bound_exits_2(capsys, expr):
    code, out, _ = run_cli(capsys, "units", "check", expr)
    assert code == 2
    assert out.startswith("E208: ")


_PART = "part A {{ id AI; mereo empty; attr x : {attr}; }}\n"


@pytest.mark.parametrize("argv, source, diagnostic", [
    (("check",), _PART.format(attr="m/0 reactive"), "1:35: E205"),
    (("check",), _PART.format(attr="m static init 5 m/0"), "1:35: E206"),
    (("check",), _PART.format(attr="Real static init 1/0"), "1:35: E206"),
    (("check",), _PART.format(attr="0*m static init 5 m"), "1:35: E205"),
    (("check",), "channel k : 0^-1;\n", "1:1: E205"),
    (("units", "check", "1/0"), None, None),
    (("units", "check", "0^-1"), None, None),
    (("units", "check", "m/0"), None, None),
], ids=["unit", "init-unit", "init-literal", "zero-scale", "channel",
        "units-1/0", "units-0^-1", "units-m/0"])
def test_zero_divisors_are_diagnosed_without_traceback(
        capsys, tmp_path, argv, source, diagnostic):
    # Each of these ended in ZeroDivisionError: the declaration or the unit
    # expression is reported instead.
    if source is not None:
        path = tmp_path / "zero.dom"
        path.write_text(source)
        argv = (*argv, str(path))
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if diagnostic is not None:
        assert code == 2
        assert f"zero.dom:{diagnostic}: " in err


@pytest.mark.parametrize("expr", ["m/0", "0*m", "1/0", "0^-1"])
def test_units_check_zero_factor_is_e205(capsys, expr):
    code, out, _ = run_cli(capsys, "units", "check", expr)
    assert code == 2
    assert out == "E205: zero factor in unit expression\n"


@pytest.mark.parametrize("expr, line", [("m/2", "m/2: m^1, scale 0.5"),
                                        ("km/h", "km/h: m^1 s^-1, scale 5/18")])
def test_units_check_scaled_units(capsys, expr, line):
    code, out, _ = run_cli(capsys, "units", "check", expr)
    assert code == 0
    assert out == line + "\n"


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


def test_main_called_repeatedly_in_one_process(capsys, aircraft_path, aircraft_script_path):
    # The parser is built once per process: no option, default or usage error
    # of one command may reach the next.
    simulate = ["simulate", str(aircraft_path), "--script", str(aircraft_script_path),
                "--steps", "20", "--seed", "7"]
    commands = [
        ["compile", str(aircraft_path), "--always-core"],
        ["compile", str(aircraft_path)],
        ["simulate", str(aircraft_path), "--steps", "1", "--seed", "0"],
        ["--help"],
        ["units", "nocheck", "m"],
        simulate,
    ]
    first_calls = []
    for argv in commands:
        build_parser.cache_clear()
        first_calls.append(run_cli(capsys, *argv))
    reused = [run_cli(capsys, *argv) for argv in commands]
    assert build_parser.cache_info().misses == 1
    assert reused == first_calls
    codes = [code for code, _, _ in reused]
    assert codes == [0, 0, 1, 0, 1, 0]
    assert reused[0][1] != reused[1][1]
    assert reused[1][1] == (GOLDEN / "aircraft_process.txt").read_text()
    assert "the following arguments are required: --script" in reused[2][2]
    assert reused[3][1].startswith("usage: domcalc")
    assert "invalid choice: 'nocheck'" in reused[4][2]
    assert reused[5][1] == (GOLDEN / "aircraft_verdicts.json").read_text()


def test_describe_unknown_sort_exits_1(capsys, aircraft_path):
    code, _, err = run_cli(capsys, "describe", str(aircraft_path), "--sort", "ZZ")
    assert code == 1
    assert "unknown sort" in err


_DP_LAST = "attr dACC : dACC programmable init 0;"

# Aircraft variants whose axioms no channel wiring can carry: (display
# attributes added to DP, declarations appended, expected refusal, the
# source clause it points at).  Every variant also gives PP the static
# attribute S.
UNWIRABLE_AXIOMS = {
    # dLO would be updated from LA as well as from LO; the last update wins.
    "display-driven-twice": ("", """
conversion r2dLOfromLA : rLA -> dLO inverse d2rLAx = affine(0.1, 0);
conversion d2rLAx : dLO -> rLA inverse r2dLOfromLA = affine(10, 0);
axiom lo_display_from_la { display(DP.dLO) tracks (PP.LA via a2rLA, r2dLOfromLA); }
""", ("E307", "axiom 'lo_display_from_la': DP.dLO is already driven by axiom "
              "'displays_track_recordings'"), "PP.LA via a2rLA, r2dLOfromLA"),
    # position sends LO through a2rLO only, so dLO2 would read half its axiom.
    "source-with-two-first-links": ("attr dLO2 : dLO programmable init 0;", """
conversion a2rLOb : point deg -> rLOb = affine(20, 0);
conversion r2dLOb : rLOb -> dLO inverse d2rLOb = affine(0.1, 0);
conversion d2rLOb : dLO -> rLOb inverse r2dLOb = affine(10, 0);
axiom doubled { display(DP.dLO2) tracks (PP.LO via a2rLOb, r2dLOb); }
""", ("E308", "axiom 'doubled': source PP.LO already goes on the wire as "
              "a2rLO(LO), not a2rLOb(LO)"), "PP.LO via a2rLOb, r2dLOb"),
    "source-also-sent-raw": ("attr rawLO : point deg programmable init 0;", """
axiom raw { display(DP.rawLO) tracks (PP.LO); }
""", ("E308", "axiom 'raw': source PP.LO already goes on the wire as a2rLO(LO), "
              "not LO"), "PP.LO"),
    "display-driven-twice-in-one-axiom": ("attr dX : dLO programmable init 0;", """
axiom twice { display(DP.dX, DP.dX) tracks (PP.LO via a2rLO, r2dLO; PP.LO via a2rLO, r2dLO); }
""", ("E307", "axiom 'twice': DP.dX is already driven by axiom 'twice'"),
        "PP.LO via a2rLO, r2dLO"),
    "source-in-target-part": ("attr ref : dLO static init 3; "
                              "attr dX : dLO programmable init 0;", """
axiom self_ref { display(DP.dX) tracks (DP.ref); }
""", ("E305", "axiom 'self_ref': source DP.ref and the target are the same part; "
              "no channel carries it"), "DP.ref"),
    # position never sends a static attribute.
    "source-not-external": ("attr dX : dLO programmable init 0;", """
axiom from_static { display(DP.dX) tracks (PP.S); }
""", ("E305", "axiom 'from_static': source PP.S is not an external attribute; "
              "no channel carries it"), "PP.S"),
}


@pytest.mark.parametrize("name", UNWIRABLE_AXIOMS)
def test_unwirable_axiom_is_refused(capsys, tmp_path, aircraft_path,
                                    aircraft_script_path, name):
    attrs, declarations, expected, clause = UNWIRABLE_AXIOMS[name]
    text = aircraft_path.read_text(encoding="utf-8")
    text = text.replace("attr AL : point m reactive;",
                        "attr AL : point m reactive; attr S : dLO static init 1;")
    model_path = tmp_path / f"{name}.dom"
    model_path.write_text(text.replace(_DP_LAST, f"{_DP_LAST} {attrs}") + declarations)
    model, diagnostics = parse_model(model_path.read_text(encoding="utf-8"))
    assert not diagnostics
    assert [(d.code, d.message) for d in check_wellformed(model) if d.is_error] == [expected]
    with pytest.raises(CompileError) as err:
        compile_model(model)
    assert [(d.code, d.message) for d in err.value.diagnostics] == [expected]
    # The span runs from the source clause, the last one in the file, to the
    # first character of its last token.
    text = model_path.read_text(encoding="utf-8")
    start = text.rindex(clause)
    line, col = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
    last = max(clause.rfind(" "), clause.rfind("."))
    assert [(d.span.start_line, d.span.start_col, d.span.end_line, d.span.end_col)
            for d in err.value.diagnostics] == [(line, col, line, col + last + 2)]
    code, out, err_text = run_cli(capsys, "check", str(model_path))
    assert code == 2 and expected[0] in err_text
    code, out, err_text = run_cli(capsys, "simulate", str(model_path), "--script",
                                  str(aircraft_script_path), "--steps", "50", "--seed", "0")
    assert code == 2 and out == "" and expected[0] in err_text


def test_biddable_attribute_without_init_is_e303_in_check_and_simulate(
        capsys, tmp_path, aircraft_path, aircraft_script_path):
    # ``check`` used to print ``ok`` here, and ``simulate`` then stopped with
    # an uncoded ``error: display: controllable 'K' has no init value``.
    text = aircraft_path.read_text(encoding="utf-8")
    model_path = tmp_path / "bid.dom"
    model_path.write_text(text.replace(_DP_LAST, f"{_DP_LAST} attr K : m biddable;"))
    code, out, err = run_cli(capsys, "check", str(model_path))
    assert code == 2 and out == ""
    assert "E303: biddable attribute DP.K has no init value" in err
    trace = tmp_path / "bid.jsonl"
    code, out, err = run_cli(capsys, "simulate", str(model_path), "--script",
                             str(aircraft_script_path), "--steps", "50", "--seed", "0",
                             "--trace", str(trace))
    assert code == 2 and out == "" and "E303" in err and "error:" not in err
    assert not trace.exists()


def test_simulate_trace_memory_does_not_grow_with_steps(
        capsys, tmp_path, aircraft_path, aircraft_script_path):
    # The run, the writer and the monitor hold no trace: four times the
    # steps, about the same peak.
    def peak(steps):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "simulate", str(aircraft_path), "--script",
                                 str(aircraft_script_path), "--steps", str(steps),
                                 "--seed", "0", "--trace", str(tmp_path / "t.jsonl"))
            assert code == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # first-use caches
    small, large = peak(2000), peak(8000)
    assert large <= 1.2 * small, (small, large)
