import ast
import re
from pathlib import Path

import pytest

import facecond
from facecond.jsonio import read_json

SRC = Path(facecond.__file__).parent


def _json_file_calls(tree: ast.Module):
    """(enclosing function, call) for each json.dump/json.load call in `tree`."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "json"
                and child.func.attr in ("dump", "load")
            ):
                yield function, child
            yield from walk(child, function)

    yield from walk(tree, None)


def test_only_jsonio_reads_or_writes_json_files():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == "jsonio.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                offenders += [f"{module}: from json import {a.name}" for a in node.names
                              if a.name in ("dump", "load")]
        for function, call in _json_file_calls(tree):
            # the one exception: main() writes its error object to stderr
            if (module, function, call.func.attr) == ("cli.py", "main", "dump") and (
                ast.unparse(call.args[1]) == "sys.stderr"
            ):
                continue
            offenders.append(f"{module}:{call.lineno} json.{call.func.attr} in {function}()")
    assert offenders == []


def test_read_json_names_the_file_for_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"id": "caf\xe9"}')
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: malformed JSON: 'utf-8' codec")):
        read_json(str(path))
