"""Layout checks over the source trees: no code in the package that neither the
package nor the benchmark reaches."""

import ast
from pathlib import Path

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
