import ast
from pathlib import Path

import seifknot


def test_all_lists_exactly_the_public_names_bound_in_the_package():
    bound = set()
    for node in ast.parse(Path(seifknot.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert seifknot.__all__ == sorted(name for name in bound if not name.startswith("_"))
    for name in seifknot.__all__:
        assert getattr(seifknot, name).__module__.startswith("seifknot.")
