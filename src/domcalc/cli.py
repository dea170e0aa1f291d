"""Command-line driver: parse, check, describe, compile, simulate, units.

Exit codes: 0 success, 1 usage or parse error, 2 axiom or check failure.
Set DOMCALC_COLOR=0 to disable ANSI colour in diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, compiler, dsl, simulator, units
from .diagnostics import has_errors


def _use_color() -> bool:
    if os.environ.get("DOMCALC_COLOR") == "0":
        return False
    return sys.stderr.isatty()


def _emit_diagnostics(diagnostics) -> None:
    if diagnostics:
        print(dsl.format_diagnostics(diagnostics, color=_use_color()), file=sys.stderr)


def _parse_model(path: str):
    """Parse; returns (model, exit_code or None)."""
    try:
        model, diagnostics = dsl.parse_file(path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 1
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8: {exc}", file=sys.stderr)
        return None, 1
    _emit_diagnostics(diagnostics)
    if has_errors(diagnostics):
        return None, 1
    return model, None


def _load_model(path: str):
    """Parse and validate; returns (model, exit_code or None)."""
    model, code = _parse_model(path)
    if code is not None:
        return None, code
    checked = analysis.check_wellformed(model)
    _emit_diagnostics(checked)
    if has_errors(checked):
        return None, 2
    return model, None


def cmd_parse(args) -> int:
    model, code = _parse_model(args.file)
    if code is not None:
        return code
    sys.stdout.write(dsl.print_model(model))
    return 0


def cmd_check(args) -> int:
    model, code = _load_model(args.file)
    if code is not None:
        return code
    print("ok")
    return 0


def cmd_describe(args) -> int:
    model, code = _load_model(args.file)
    if code is not None:
        return code
    sorts = [args.sort] if args.sort else [p.name for p in model.parts()]
    for name in sorts:
        if model.endurant(name) is None:
            print(f"error: unknown sort {name!r}", file=sys.stderr)
            return 1
        print(f"## {name}")
        cls = analysis.classify(model, name)
        prompts = [analysis.observe_unique_identifier, analysis.observe_mereology,
                   analysis.observe_attributes]
        if cls.is_composite:
            prompts.insert(0, analysis.observe_part_sorts)
        for prompt in prompts:
            try:
                description = prompt(model, name)
            except (analysis.NotComposite, analysis.NoIdentifier, analysis.NotAPart):
                continue
            print(f"\n{description.narrative}\n")
            for decl in description.formal:
                print(f"    {decl.kind} {decl.text}")
        print()
    return 0


def cmd_compile(args) -> int:
    model, code = _load_model(args.file)
    if code is not None:
        return code
    try:
        graph = compiler.compile_model(model, always_core=args.always_core)
    except compiler.CompileError as exc:
        _emit_diagnostics(exc.diagnostics)
        return 2
    sys.stdout.write(compiler.print_process(graph))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(compiler.graph_to_json(graph), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


def cmd_simulate(args) -> int:
    model, code = _load_model(args.file)
    if code is not None:
        return code
    try:
        graph = compiler.compile_model(model)
        with open(args.script, encoding="utf-8") as handle:
            data = json.load(handle)
        script = simulator.EnvironmentScript.from_json(data, graph)
        config = simulator.instantiate(graph, script, args.seed)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {args.script}: not a JSON script: {exc}", file=sys.stderr)
        return 1
    except (compiler.CompileError, simulator.ScriptError,
            simulator.UncoveredChannel, simulator.MissingInit, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    trace = simulator.run(config, args.steps)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(simulator.trace_to_jsonl(trace))
    verdicts = simulator.check_axioms(model, trace)
    print(json.dumps(simulator.verdicts_to_json(verdicts), indent=2, sort_keys=True))
    return 0 if all(v.passed for v in verdicts) else 2


def cmd_units(args) -> int:
    text = args.expr
    try:
        dimension, scale = units.parse_unit(text)
    except units.UnitError:
        result = units.typecheck_expr(text, {}, units.builtin_registry())
        if result.kind is not None:
            print(f"{result.kind.name}: {result.kind.dimension}")
            return 0
        for diagnostic in result.diagnostics:
            print(f"{diagnostic.code}: {diagnostic.message}")
        return 2
    name = units.derived_unit_name(dimension) if scale == 1 else None
    line = f"{name}: {dimension}" if name else f"{units.canonical_unit_text(text)}: {dimension}"
    if scale != 1:
        line += f", scale {units.fraction_str(scale)}"
    print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
