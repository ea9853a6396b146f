"""Layout checks over the source trees: no code in the package that neither the
package nor the benchmark reaches, and one checker for every JSON input."""

import ast
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args

from ecgbench import core, ingest, synth

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "ecgbench").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _references(path: Path, with_strings: bool) -> set:
    """Every name that a file's code uses: a Name, an Attribute or an import
    alias, and with with_strings its string constants too (the benchmark
    wraps some functions by name)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unreachable_definitions(src=SRC, bench=BENCH) -> list:
    """module:name of each module-level function or class in src that no file
    of either tree references."""
    used = set().union(*(_references(p, False) for p in src),
                       *(_references(p, True) for p in bench))
    return [f"{path.stem}:{node.name}"
            for path in src
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in used]


def test_every_package_definition_is_reached_from_the_package_or_the_bench():
    assert SRC and BENCH
    assert unreachable_definitions() == []


def test_no_package_module_imports_scipy():
    # An AST walk sees an import inside a function too, which an import-time
    # check of sys.modules would not.
    found = []
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.stem}:{node.lineno}" for module in modules
                      if module.split(".")[0] == "scipy"]
    assert SRC and found == []


def test_every_dataclass_read_from_json_is_checked():
    # read_object builds a nested dataclass from a field's annotation, through
    # unions and tuples, so walking the annotations of the three JSON inputs'
    # roots finds every type it can build.
    built, todo = set(), [core.RunConfig, ingest.ManifestEntry, synth.SynthSpec]
    while todo:
        kind = todo.pop()
        if is_dataclass(kind):
            if kind not in built:
                built.add(kind)
                todo += [f.type for f in fields(kind)]
        else:
            todo += get_args(kind)
    assert {core.FilterSpec, core.RegimeCell, synth.SessionEffects} <= built
    assert sorted(k.__name__ for k in built if not issubclass(k, core.Checked)) == []
