"""Every JSON input goes through one reader, ``nrrd_io.read_document``,
and its fields through one table check, ``nrrd_io.check_fields``."""

import ast
import json
from pathlib import Path

import pytest

from siftcad.nrrd_io import check_fields, read_document

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "siftcad"


class _JsonReads(ast.NodeVisitor):
    """Every call to ``json.load`` or ``json.loads`` in a module, and
    every import of either, with the function it is in."""

    def __init__(self, module: str):
        self.module, self.functions, self.found = module, [], []

    def _add(self, node):
        self.found.append((self.module, self.functions[-1] if self.functions else None,
                           node.lineno))

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_ImportFrom(self, node):
        if node.module == "json" and {a.name for a in node.names} & {"load", "loads"}:
            self._add(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("load", "loads") \
                and isinstance(func.value, ast.Name) and func.value.id == "json":
            self._add(node)
        self.generic_visit(node)


def test_json_is_decoded_only_by_the_document_reader():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _JsonReads(path.name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        reads += visitor.found
    assert [(m, f) for m, f, _ in reads] == [("nrrd_io.py", "read_document")], reads


@pytest.mark.parametrize("content, message", [
    (b'{"a": 1}\xff', "model file is not UTF-8 text: "),
    (b'{"a": ', "model file is not valid JSON: "),
    (b"[" * 100_000, "model file is not valid JSON: "),
    (b"1" * 5_000, "model file is not valid JSON: "),
    (b"[1, 2]", "model file must be a JSON object, not array"),
    (b"null", "model file must be a JSON object, not null"),
    (b"true", "model file must be a JSON object, not boolean"),
    (b"-1.5e3", "model file must be a JSON object, not number"),
    (b"7", "model file must be a JSON object, not number"),
    (b'"lesion"', "model file must be a JSON object, not string"),
], ids=["bytes", "truncated", "deep", "long_integer", "list", "null", "boolean",
        "float", "integer", "string"])
def test_reader_names_the_file_and_what_it_holds(tmp_path, content, message):
    class Malformed(Exception):
        pass

    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(Malformed) as err:
        read_document(path, "model file", Malformed)
    assert str(err.value).startswith(f"{path}: {message}")


def test_reader_returns_the_top_level_object(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"cases": [], "x": 1.5}))
    assert read_document(path, "manifest", ValueError) == {"cases": [], "x": 1.5}


_TABLE = (
    ("name", True, lambda v: isinstance(v, str), "a string"),
    ("size", False, lambda v: isinstance(v, int), "an integer"),
)


@pytest.mark.parametrize("entry, message", [
    ([], "doc must be a JSON object"),
    ({}, "doc: missing field 'name'"),
    ({"name": 3}, "doc: field 'name' must be a string, not 3"),
    ({"name": None}, "doc: field 'name' must be a string, not None"),
    ({"name": "a", "size": "big"}, "doc: field 'size' must be an integer, not 'big'"),
    ({"name": "a", "size": [1]}, "doc: field 'size' must be an integer"),
    ({"name": "a", "size": {"k": 1}}, "doc: field 'size' must be an integer"),
], ids=["not_object", "missing", "number", "null", "string", "list", "object"])
def test_field_check_names_the_field_and_quotes_a_scalar(entry, message):
    with pytest.raises(ValueError) as err:
        check_fields(entry, _TABLE, "doc", ValueError)
    assert str(err.value) == message


def test_field_check_passes_a_valid_entry():
    check_fields({"name": "a"}, _TABLE, "doc", ValueError)
    check_fields({"name": "a", "size": 2, "other": None}, _TABLE, "doc", ValueError)
