"""The size census of ``src/``: its line count and its settable surface.

Prints two numbers the design aim "the same bytes from the least code"
is measured by:

* **lines** — the total line count of every ``*.py`` file under ``src/``;
* **census** — the defaulted parameters of public functions and methods
  plus the defaulted fields of public dataclasses, counted by AST.

A function is public when its name has no leading underscore (dunder
methods such as ``__init__`` count, they are a class's public
signature) and it is defined at module level or directly in a public
module-level class.  A parameter is defaulted when it has a default
value, positional or keyword-only.  A dataclass field is defaulted when
its annotated class-level assignment has a value (``= x``, or
``= field(...)`` with ``default`` or ``default_factory``); ``ClassVar``
annotations are not fields.

Run::

    make census
    python benchmarks/census.py [--src DIR]
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _defaulted_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = node.args
    return len(args.defaults) + sum(1 for d in args.kw_defaults if d is not None)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _has_default(value: ast.expr) -> bool:
    """``= x`` sets a default; ``= field(...)`` only with ``default`` or
    ``default_factory``."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return True


def _defaulted_fields(node: ast.ClassDef) -> int:
    count = 0
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and item.value is not None:
            if "ClassVar" not in ast.unparse(item.annotation) and _has_default(item.value):
                count += 1
    return count


def census(tree: ast.Module) -> int:
    """Defaulted public parameters plus defaulted public dataclass fields."""
    total = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _public(node.name):
                total += _defaulted_params(node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            if _is_dataclass(node):
                total += _defaulted_fields(node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _public(item.name):
                        total += _defaulted_params(item)
    return total


def measure(src: Path) -> tuple[int, int]:
    """``(lines, census)`` over every ``*.py`` file under ``src``."""
    lines = 0
    count = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        count += census(ast.parse(text, filename=str(path)))
    return lines, count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="source tree to measure")
    args = parser.parse_args(argv)
    lines, count = measure(args.src)
    print(f"src lines: {lines}")
    print(f"census (defaulted public parameters + dataclass fields): {count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
