"""Module boundaries of the package, checked on its source.

Every pair of a point set is read inside ``lilyseg.geometry``: no other
module of the package touches a private member of
:class:`~lilyseg.geometry.PairTable`, its own ``_``-prefixed names and the
instance attribute ``_condition_reports``.  The other modules reach the
pairs through the table's public methods (the kernels, the genericity
screens and ``d``), so a change to how pairs are read stays in one module.

No module but ``__init__.py``, which re-exports, imports a name at top
level that it never uses.
"""

import ast
from pathlib import Path

import lilyseg
from lilyseg.geometry import PairTable

PACKAGE = Path(lilyseg.__file__).resolve().parent

PRIVATE = {name for name in vars(PairTable) if name.startswith("_") and not name.endswith("__")}
PRIVATE.add("_condition_reports")


def private_reads(path: Path):
    """``(line, name)`` of every attribute access in ``path`` named like a private member of ``PairTable``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.attr) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in PRIVATE]


def test_no_module_but_geometry_reads_pair_table_internals():
    assert {"_row_blocks", "_near_slab", "_block", "_screen_rows", "_condition_reports"} <= PRIVATE
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "geometry.py")
    assert {"pointprocess.py", "solver.py", "structure.py"} <= {p.name for p in modules}
    found = {p.name: private_reads(p) for p in modules}
    assert {name: reads for name, reads in found.items() if reads} == {}


def unused_imports(path: Path):
    """The names ``path`` binds by a top-level import and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert {"cli.py", "render.py", "stats.py"} <= {p.name for p in modules}
    found = {p.name: unused_imports(p) for p in modules}
    assert {name: unused for name, unused in found.items() if unused} == {}
