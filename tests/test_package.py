"""The package's public surface: its exports and the README's solver
table; and no module imports a name it never uses."""

import ast
import re
from pathlib import Path

import sesopt
from sesopt.bench import SOLVER_NAMES

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_export_resolves_and_the_readme_lists_every_solver():
    missing = [name for name in sesopt.__all__ if not hasattr(sesopt, name)]
    assert missing == []
    assert len(set(sesopt.__all__)) == len(sesopt.__all__)

    # the rows of the table under "## Solvers"
    section = README.read_text().split("## Solvers", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(SOLVER_NAMES)


def _unused_imports(path):
    """The names ``path`` imports at its top level and never uses; a name
    listed in the module's ``__all__`` counts as used."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for d in ("src", "tests", "scripts")
                     for p in (ROOT / d).rglob("*.py"))
    assert len(modules) > 20
    unused = [hit for path in modules for hit in _unused_imports(path)]
    assert unused == []
