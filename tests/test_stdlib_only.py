"""The engine stays standard-library only: `src/closurelab` imports nothing
but the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "closurelab"


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_stdlib_and_itself():
    files = sorted(SRC.rglob("*.py"))
    assert files
    allowed = set(sys.stdlib_module_names) | {"closurelab"}
    outside = [(p.name, name) for p in files
               for name in _top_level_imports(p) if name not in allowed]
    assert outside == []


def test_only_the_field_and_the_kernel_boundary_import_fractions():
    """Rational numbers are field values (field.py) and are cleared where a
    polynomial or a vector is made, and made again where one is read
    (poly.py); everything else works on field values or integers."""
    importers = sorted(p.name for p in SRC.rglob("*.py")
                       if "fractions" in _top_level_imports(p))
    assert importers == ["field.py", "poly.py"]


def test_no_module_imports_dataclasses():
    """Value types are written out (values.py): a dataclass generates its
    methods from source when its class is created, at every import."""
    importers = sorted(p.name for p in SRC.rglob("*.py")
                       if "dataclasses" in _top_level_imports(p))
    assert importers == []


def _imported_names(path):
    """Every dotted part and imported name of a file's imports, relative
    ones included: `from .linalg import x`, `from . import linalg` and
    `import closurelab.linalg` all give linalg."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield from alias.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            yield from (node.module or "").split(".")
            yield from (alias.name for alias in node.names)


def test_only_the_acceptance_suite_and_the_samplers_import_linalg():
    """linalg is the brute-force linear algebra of the acceptance oracles
    and the samplers' monomial lists; the engine's rank tests are
    reductions of kernel rows (modules._outside_later_spans), so no
    engine module shares code with those oracles."""
    importers = sorted(p.name for p in SRC.rglob("*.py")
                       if "linalg" in _imported_names(p))
    assert importers == ["acceptance.py", "sampling.py"]
