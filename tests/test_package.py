"""The package's public surface: its exports and the README's solver table."""

import re
from pathlib import Path

import sesopt
from sesopt.bench import SOLVER_NAMES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_and_the_readme_lists_every_solver():
    missing = [name for name in sesopt.__all__ if not hasattr(sesopt, name)]
    assert missing == []
    assert len(set(sesopt.__all__)) == len(sesopt.__all__)

    # the rows of the table under "## Solvers"
    section = README.read_text().split("## Solvers", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(SOLVER_NAMES)
