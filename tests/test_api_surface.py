"""Public API guard: every top-level public name in ``src/siftcad``, and
every public method and property of its public classes (``Class.name``),
is used somewhere in the package other than its own definition.

Names only tests call are dead weight unless a test uses them as a
reference or an oracle for code the pipeline runs; those are listed
here, each with the reason it stays, and some other test module must
still use each of them. Members are matched by name alone: a read of
``.name`` on any object counts as a use of every ``Class.name``.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "siftcad"

TEST_ONLY = {
    "gray_erode": "erosion through the line filter sifting runs, checked against two oracles",
    "gray_dilate": "line dilation, checked against the same oracles",
    "gray_open": "single-line opening for the opening-law criterion",
    "ms2d": "single-slice sifting, checked against the oracle's direct evaluation",
    "dwt3_db2": "forward transform of the wavelet round-trip and LLL-gain criterion",
    "idwt3_db2": "inverse transform of the same round trip",
    "upscale_mask": "whole-grid inverse the box-local upscale of candidates is checked against",
    "train_tree": "one CART tree, the unit the ensemble tests build on",
    "rusboost_cv_curve": "CV loss per boosting round, checked by a criterion",
    "tpr_at_fpp": "reads a FROC operating point in the end-to-end criterion and the benchmark",
    "analytic_lesion_volume_mm3": "analytic reference for the phantom's voxel volumes",
    "generate_case": "the phantom's volume stream collected in memory: its checks and the feature tests read cases without files",
    "dsi": "whole-mask DSI the acceptance criteria state their thresholds in",
}


def _names_used(tree) -> list[tuple[str, int]]:
    """Every name a module loads, reads as an attribute or imports, with
    its line."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name, node.lineno))
    return out


def _public_definitions(tree):
    """(name, node) of each public top-level name of a module, and of each
    public method and property of its public classes as ``Class.name``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((name, node) for name in names if not name.startswith("_"))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                        not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _definitions_and_references():
    definitions: dict[str, list[tuple[str, int, int]]] = {}
    references: list[tuple[str, str, int]] = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in _public_definitions(tree):
            definitions.setdefault(name, []).append(
                (path.name, node.lineno, node.end_lineno))
        references += [(name, path.name, line) for name, line in _names_used(tree)]
    return definitions, references


def _bare(name: str) -> str:
    return name.rpartition(".")[2]


def _unreferenced() -> set[str]:
    definitions, references = _definitions_and_references()
    sites: dict[str, list[tuple[str, int]]] = {}
    for name, module, line in references:
        sites.setdefault(name, []).append((module, line))
    return {name for name, spans in definitions.items()
            if all(any(module == m and first <= line <= last for m, first, last in spans)
                   for module, line in sites.get(_bare(name), ()))}


def test_every_public_name_is_used_in_the_package_or_listed():
    unreferenced = _unreferenced()
    assert unreferenced - set(TEST_ONLY) == set(), \
        "public names and members nothing in src/siftcad uses: delete them or list why tests need them"
    assert set(TEST_ONLY) - unreferenced == set(), \
        "listed names that are gone or now used by the package: drop them from the list"


def test_every_listed_name_is_used_by_another_test_module():
    used = set()
    for path in TESTS.glob("*.py"):
        if path.name != Path(__file__).name:
            tree = ast.parse(path.read_text(), filename=str(path))
            used.update(name for name, _ in _names_used(tree))
    assert {name for name in TEST_ONLY if _bare(name) not in used} == set(), \
        "listed names no test uses any more: delete them from the package"
