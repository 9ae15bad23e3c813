"""Size counts of the package source, printed as one JSON object.

    python3 scripts/design_census.py [package directory]

The directory defaults to ``src/audiocap`` beside this script's parent.

  src_lines        lines in the package's ``.py`` files
  settable_values  defaulted parameters (positional or keyword-only) of
                   every function and lambda, plus dataclass fields
                   declared with a value (`x: T = v` or `= field(...)`)

A settable value is a knob a caller may turn; the count falls as values
that no caller sets become constants.
"""

import ast
import json
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "audiocap"


def _is_dataclass(node: ast.ClassDef) -> bool:
    """`@dataclass` or `@dataclass(...)`, the forms the package uses."""
    return any(ast.unparse(d).split("(")[0] == "dataclass"
               for d in node.decorator_list)


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            count += len(node.defaults)
            count += sum(d is not None for d in node.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def census(package: Path) -> dict[str, int]:
    lines = values = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines += len(source.splitlines())
        values += settable_values(ast.parse(source, filename=str(path)))
    return {"src_lines": lines, "settable_values": values}


if __name__ == "__main__":
    print(json.dumps(census(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE)))
