"""Count non-docstring statements per top-level package of a path.

    python benchmarks/stmt_count.py src/repro

The size number simplicity PRs report: every ``ast.stmt`` node except
bare string expressions (docstrings), so comments, blank lines and
reformatting do not move it.
Report only — nothing gates on it.
"""

import ast
import sys
from collections import Counter
from pathlib import Path


def _is_docstring(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(source: str) -> int:
    return sum(
        isinstance(node, ast.stmt) and not _is_docstring(node)
        for node in ast.walk(ast.parse(source))
    )


def main(root: str) -> None:
    counts: Counter = Counter()
    for path in sorted(Path(root).rglob("*.py")):
        parts = path.relative_to(root).parts
        counts[parts[0] if len(parts) > 1 else "."] += statements(path.read_text())
    for package, count in sorted(counts.items()):
        print(f"{package:<14}{count:>7}")
    print(f"{'total':<14}{sum(counts.values()):>7}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/repro")
