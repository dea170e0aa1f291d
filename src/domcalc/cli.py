"""Command-line driver: parse, check, describe, compile, simulate, units.

Exit codes: 0 success, 1 usage or parse error, 2 axiom or check failure.
A command returns when it succeeds and otherwise raises ``SystemExit`` with
its code, as ``parse_args`` does; ``main`` returns that code.
``main`` can be called any number of times in one process; the argument
parser is built on its first call, and ``simulator`` is imported by
``simulate`` alone.
Set DOMCALC_COLOR=0 to disable ANSI colour in diagnostics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import analysis, compiler, dsl, units
from .diagnostics import has_errors


def _use_color() -> bool:
    if os.environ.get("DOMCALC_COLOR") == "0":
        return False
    return sys.stderr.isatty()


def _emit_diagnostics(diagnostics) -> None:
    if diagnostics:
        print(dsl.format_diagnostics(diagnostics, color=_use_color()), file=sys.stderr)


def _fail(message) -> SystemExit:
    """Print ``error: message``; the exit-1 exception for the caller to raise."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(1)


def _parse_model(path: str):
    """The parsed model; ``SystemExit(1)`` after its errors."""
    try:
        model, diagnostics = dsl.parse_file(path)
    except OSError as exc:
        raise _fail(exc)
    except UnicodeDecodeError as exc:
        raise _fail(f"{path}: not UTF-8: {exc}")
    _emit_diagnostics(diagnostics)
    if has_errors(diagnostics):
        raise SystemExit(1)
    return model


def _load_model(path: str):
    """The parsed and validated model; ``SystemExit(2)`` after check errors."""
    model = _parse_model(path)
    checked = analysis.check_wellformed(model)
    _emit_diagnostics(checked)
    if has_errors(checked):
        raise SystemExit(2)
    return model


def _compile_model(path: str, always_core: bool = False):
    """Parse, validate and compile: the process graph, which carries its
    model; ``SystemExit(2)`` after a refusal."""
    model = _load_model(path)
    try:
        return compiler.compile_model(model, always_core=always_core)
    except compiler.CompileError as exc:
        _emit_diagnostics(exc.diagnostics)
        raise SystemExit(2)


def _write_output(path: str, text: str) -> None:
    """Write an output file; ``SystemExit(1)`` when it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _fail(exc)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` of dicts with string keys,
    lists, strings, integers, booleans and ``None``, without the pure-Python
    encoder that ``indent`` forces on ``json.dumps``."""
    out: list[str] = []
    _write_json(obj, out, "\n")
    return "".join(out)


def _write_json(obj, out: list[str], newline: str) -> None:
    """Append ``obj``'s indented JSON to ``out``; ``newline`` ends with the
    indentation of the line that ``obj`` starts on."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(obj):
            out.append(separator)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(obj[key], out, inner)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in obj:
            out.append(separator)
            _write_json(item, out, inner)
            separator = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def cmd_parse(args) -> None:
    sys.stdout.write(dsl.print_model(_parse_model(args.file)))


def cmd_check(args) -> None:
    _load_model(args.file)
    print("ok")


def cmd_describe(args) -> None:
    model = _load_model(args.file)
    sorts = [args.sort] if args.sort else [p.name for p in model.parts()]
    for name in sorts:
        if model.endurant(name) is None:
            raise _fail(f"unknown sort {name!r}")
        print(f"## {name}")
        for prompt in (analysis.observe_part_sorts, analysis.observe_unique_identifier,
                       analysis.observe_mereology, analysis.observe_attributes):
            try:
                description = prompt(model, name)
            except (analysis.NotComposite, analysis.NoIdentifier, analysis.NotAPart):
                continue
            print(f"\n{description.narrative}\n")
            for decl in description.formal:
                print(f"    {decl.kind} {decl.text}")
        print()


def cmd_compile(args) -> None:
    graph = _compile_model(args.file, args.always_core)
    sys.stdout.write(compiler.print_process(graph))
    if args.json:
        _write_output(args.json, _json_text(compiler.graph_to_json(graph)) + "\n")


def cmd_simulate(args) -> None:
    from . import simulator

    if args.steps < 0:
        raise _fail(f"--steps must be >= 0, not {args.steps}")
    graph = _compile_model(args.file)
    try:
        with open(args.script, encoding="utf-8") as handle:
            data = json.load(handle)
        script = simulator.EnvironmentScript.from_json(data, graph)
        config = simulator.instantiate(graph, script, args.seed)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _fail(f"{args.script}: not a JSON script: {exc}")
    except (simulator.ScriptError, simulator.UncoveredChannel, OSError) as exc:
        raise _fail(exc)
    if not args.trace:
        # The benchmark's pairs_wide output check reads the events ``run`` returns.
        verdicts = simulator.check_axioms(graph.model, simulator.run(config, args.steps))
    else:
        # One pass: each event is written and monitored as the run yields it.
        # The writer hands the file one line at a time; a 64 KiB buffer keeps
        # the system calls as few as whole-chunk writes would.
        try:
            with open(args.trace, "w", encoding="utf-8", buffering=1 << 16) as handle:
                verdicts = simulator.check_axioms(graph.model, simulator.write_jsonl(
                    simulator.stream(config, args.steps), handle))
        except OSError as exc:
            raise _fail(exc)
    print(_json_text(simulator.verdicts_to_json(verdicts)))
    if not all(v.passed for v in verdicts):
        raise SystemExit(2)


def cmd_units(args) -> None:
    text = args.expr
    try:
        dimension, scale = units.parse_unit(text)
    except (units.UnitBoundError, units.ZeroUnitFactor) as exc:
        print(f"{'E208' if isinstance(exc, units.UnitBoundError) else 'E205'}: {exc}")
        raise SystemExit(2)
    except units.UnitError:
        result = units.typecheck_expr(text, {}, units.builtin_registry())
        if result.kind is not None:
            print(f"{result.kind.name}: {result.kind.dimension}")
            return
        for diagnostic in result.diagnostics:
            print(f"{diagnostic.code}: {diagnostic.message}")
        raise SystemExit(2)
    name = units.derived_unit_name(dimension) if scale == 1 else None
    line = f"{name}: {dimension}" if name else f"{units.canonical_unit_text(text)}: {dimension}"
    if scale != 1:
        line += f", scale {units.fraction_str(scale)}"
    print(line)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    ``parse_args`` leaves it unchanged and returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="domcalc",
        description="Domain-description toolchain: explicit semantics for "
                    "endurants, units and behaviours.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a .dom file and print the canonical form")
    p.add_argument("file")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("check", help="validate a .dom file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("describe", help="emit analysis & description prompts")
    p.add_argument("file")
    p.add_argument("--sort", help="describe a single sort")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("compile", help="compile parts to behaviour processes")
    p.add_argument("file")
    p.add_argument("--json", help="also write the process-graph JSON document")
    p.add_argument("--always-core", action="store_true",
                   help="emit core behaviours even for quality-free composites")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="run the compiled behaviours and check axioms")
    p.add_argument("file")
    p.add_argument("--script", required=True, help="environment script (JSON)")
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--trace", help="write the trace as JSON lines")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("units", help="check a unit or attribute-value expression")
    p.add_argument("action", choices=["check"])
    p.add_argument("expr")
    p.set_defaults(func=cmd_units)
    return parser


def main(argv=None) -> int:
    """Run one command: 0 when it returns, else the code of its ``SystemExit``."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        try:
            args.func(args)
            code = 0
        except SystemExit as exc:
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output (``domcalc simulate … | head -1``).
        # Point it at devnull so the interpreter's final flush cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
