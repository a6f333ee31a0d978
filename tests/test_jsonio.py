import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

import facecond
from facecond.checkpoint import load_arrays
from facecond.cli import _load_tokens
from facecond.datapipe import load_manifest, load_manifest_strict
from facecond.evalkit import load_eval_records
from facecond.geometry import load_landmarks
from facecond.jsonio import INTEGER, NUMBER, fits, number_array, read_json, write_json

SRC = Path(facecond.__file__).parent


_GUARDED = ("dump", "dumps", "load", "loads")


def _json_file_calls(tree: ast.Module):
    """(enclosing function, call) for each json.dump/json.dumps/json.load/
    json.loads call in `tree`; a json.dumps call is flagged because a
    whole-document string built around `write_json` would undo its
    streaming, and a json.loads call because JSONL lines and bundled
    resources are decoded by jsonio too."""
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
                and child.func.attr in _GUARDED
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
                              if a.name in _GUARDED]
        for function, call in _json_file_calls(tree):
            # the one exception: main() writes its error object to stderr
            if (module, function, call.func.attr) == ("cli.py", "main", "dump") and (
                ast.unparse(call.args[1]) == "sys.stderr"
            ):
                continue
            offenders.append(f"{module}:{call.lineno} json.{call.func.attr} in {function}()")
    assert offenders == []


def test_json_guard_sees_each_guarded_call_and_its_function():
    tree = ast.parse("json.dumps(x)\ndef f():\n    json.dump(x, fh)\n    json.loads(s)\n    json.load(fh)")
    assert [(f, c.lineno, c.func.attr) for f, c in _json_file_calls(tree)] == [
        (None, 1, "dumps"), ("f", 3, "dump"), ("f", 4, "loads"), ("f", 5, "load")]


def test_only_jsonio_and_cli_import_json():
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "json" in names:
                importers.append(path.relative_to(SRC).as_posix())
    assert importers == ["cli.py", "jsonio.py"]


_GOOD_EVAL = b'{"id": "a", "task": "expression", "generated": "x", "ground_truth": "happiness"}'
_GOOD_MANIFEST = json.dumps({"id": "m", "task": "expression", "label": "happiness",
                             "media": {"path": "v/0.mp4", "type": "video"},
                             "description": "d"}).encode()


# each input with G for a good line, and the lines that are malformed
@pytest.mark.parametrize(
    "text, bad_lines",
    [
        (b"G\n\nG\n", []),
        (b"G\n \t \nG\n", []),
        (b"G\r\nG\r\n\r\nG\r\n", []),
        (b"G\nG", []),
        (b"", []),
        (b"G\n\ncaf\xe9\nG\n", [3]),
        (b"G\nnot json\n\n{\"id\": \nG", [2, 4]),
        (b"G\n[1, 2]\n\"text\"\nnull\n7\nG\n", [2, 3, 4, 5]),
    ],
    ids=["blank_line", "whitespace_only_line", "crlf", "no_final_newline", "empty_file",
         "not_utf8", "not_json", "not_an_object"],
)
def test_both_jsonl_loaders_read_lines_alike(tmp_path, text, bad_lines):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(text.replace(b"G", _GOOD_MANIFEST))
    records, errors = load_manifest(str(path))
    assert [line for line, _ in errors] == bad_lines
    assert len(records) == text.count(b"G")
    path.write_bytes(text.replace(b"G", _GOOD_EVAL))
    if bad_lines:
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{bad_lines[0]}: bad eval record: "):
            load_eval_records(str(path))
    else:
        assert len(load_eval_records(str(path))) == len(records)


def test_read_json_names_the_file_for_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"id": "caf\xe9"}')
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: malformed JSON: 'utf-8' codec")):
        read_json(str(path), dict)


def _manifest_line(**change):
    return json.dumps({**json.loads(_GOOD_MANIFEST), **change})


def _eval_line(**change):
    return json.dumps({**json.loads(_GOOD_EVAL), **change})


def _checkpoint(**tensors):
    return json.dumps({"format": "facecond-checkpoint-v1", "meta": {}, "tensors": {
        "a.weight": {"shape": [2, 1], "data": [0.5, 1.5]}, **tensors}})


_FRAMES = [[[0.5, 0.5]] * 68]


# each loader, a file with one field of the wrong kind, and what follows the
# file's name in the error: the key path, the value as JSON and the kind
@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_manifest_strict,
         _manifest_line(id=None, description=5, media={"path": 7, "type": "video"}),
         ": manifest has 1 malformed lines (first: line 1: 'id' is null, not a string)"),
        (load_manifest_strict, _manifest_line(description=5),
         ": manifest has 1 malformed lines (first: line 1: 'description' is 5, not a string)"),
        (load_manifest_strict, _manifest_line(media={"path": 7, "type": "video"}),
         ": manifest has 1 malformed lines (first: line 1: media 'path' is 7, not a string)"),
        (load_manifest_strict, _manifest_line(task=["expression"]),
         ": manifest has 1 malformed lines (first: line 1: 'task' is [\"expression\"], not a string)"),
        (load_manifest_strict, _manifest_line(media=["v/0.mp4"]),
         ": manifest has 1 malformed lines (first: line 1: 'media' is [\"v/0.mp4\"], not an object)"),
        (load_manifest_strict, "[1, 2]",
         ": manifest has 1 malformed lines (first: line 1: record is [1, 2], not an object)"),
        (load_eval_records, _eval_line(id=None), ":1: bad eval record: 'id' is null, not a string"),
        (load_eval_records, "[1]", ":1: bad eval record: record is [1], not an object"),
        (load_landmarks, json.dumps({"id": None, "frames": _FRAMES}),
         ": 'id' is null, not a string"),
        (load_landmarks, json.dumps({"id": ["x"], "frames": _FRAMES}),
         ": 'id' is [\"x\"], not a string"),
        (load_landmarks, "[1]", ": document is [1], not an object"),
        (_load_tokens, json.dumps({"id": 5, "tokens": [[[0.5]]]}), ": 'id' is 5, not a string"),
        (load_arrays, _checkpoint(**{"a.weight": {"data": [0.5, 1.5]}}),
         ": tensor 'a.weight': missing key 'shape'"),
        (load_arrays, _checkpoint(**{"a.bias": [0.0]}), ": tensor 'a.bias' is [0.0], not an object"),
        (load_arrays, _checkpoint(**{"a.weight": {"shape": [2.0, 1], "data": [0.5, 1.5]}}),
         ": tensor 'a.weight': 'shape' is [2.0, 1], not a list of integers"),
    ],
    ids=["manifest-null_id_number_description_and_path", "manifest-number_description",
         "manifest-number_media_path", "manifest-list_task", "manifest-list_media",
         "manifest-a_list", "eval-null_id", "eval-a_list", "landmarks-null_id",
         "landmarks-list_id", "landmarks-a_list", "tokens-number_id", "checkpoint-no_shape",
         "checkpoint-entry_list", "checkpoint-float_shape"],
)
def test_loaders_name_the_file_and_key_path_of_a_field_of_the_wrong_kind(
    tmp_path, load, text, message
):
    path = tmp_path / "doc.json"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load(str(path))
    assert str(excinfo.value) == f"{path}{message}"


def test_valid_documents_with_a_non_ascii_id_and_null_optionals_load_as_written(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(_manifest_line(id="r-é中", instruction=None) + "\n", encoding="utf-8")
    [record] = load_manifest_strict(str(path))
    assert (record.id, record.instruction) == ("r-é中", None)
    path.write_text(_eval_line(id="e-é", chunk_group=None) + "\n", encoding="utf-8")
    [record] = load_eval_records(str(path))
    assert (record.id, record.chunk_group) == ("e-é", None)
    path.write_text(json.dumps({"id": "clip-é", "frames": _FRAMES}), encoding="utf-8")
    assert load_landmarks(str(path))[0] == "clip-é"
    for doc, want in [({"tokens": [[[0.5]]]}, None), ({"id": None, "tokens": [[[0.5]]]}, None),
                      ({"id": "t-é", "tokens": [[[0.5]]]}, "t-é")]:
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert _load_tokens(str(path))[0] == want


def test_is_int_and_is_number():
    for value, want_int, want_number in [
        (3, True, True), (-(10**30), True, True), (0.5, False, True), (-1e308, False, True),
        (True, False, False), (False, False, False), (None, False, False), ("1", False, False),
        (float("nan"), False, False), (float("inf"), False, False), (float("-inf"), False, False),
        (10**399, True, False), (-(10**399), True, False), ([1], False, False),
    ]:
        assert (fits(value, INTEGER), fits(value, NUMBER)) == (want_int, want_number), value


# shape (3, 3, 2) cut to the rank; `bad` goes at index (1, 1, 0) cut to the
# rank, and a null in the last entry shows that the first bad entry is named
_SHAPE, _AT = (3, 3, 2), (1, 1, 0)


def _nested(ndim, fill, bad):
    flat = np.full(_SHAPE[:ndim], fill, dtype=object)
    flat[_AT[:ndim]] = bad
    flat[(-1,) * ndim] = None
    return flat.tolist()


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("fill", [0.5, 2], ids=["among_floats", "among_ints"])
@pytest.mark.parametrize(
    "bad, text",
    [
        (True, "true, not a number"),
        (False, "false, not a number"),
        (None, "null, not a number"),
        ("1.5", '"1.5", not a number'),
        ({"x": 1.5}, '{"x": 1.5}, not a number'),
        ([1.5], "[1.5], not a number"),
        (float("nan"), "NaN, a non-finite value"),
        (float("inf"), "Infinity, a non-finite value"),
        (-(10**399), "-1" + "0" * 38 + "..., a non-finite value"),
    ],
    ids=["true", "false", "null", "numeric_string", "dict", "too_deep", "nan", "infinity",
         "integer_beyond_float64"],
)
def test_number_array_names_the_first_bad_leaf(ndim, fill, bad, text):
    index = "".join(f"[{i}]" for i in _AT[:ndim])
    with pytest.raises(ValueError) as excinfo:
        number_array(_nested(ndim, fill, bad), ndim, "f.json: x")
    assert str(excinfo.value) == f"f.json: x{index} is {text}"


@pytest.mark.parametrize(
    "value, ndim, message",
    [
        (0.5, 1, "x is 0.5, not a list"),
        ({"a": [0.5]}, 1, 'x is {"a": [0.5]}, not a list'),
        ([[0.5, 0.5], 0.5], 2, "x[1] is 0.5, not a list"),
        ([[[0.5]], [0.5]], 3, "x[1][0] is 0.5, not a list"),
        ([[0.5, 0.5], [0.5]], 2, "x[1] has 1 entries, not 2"),
        ([[[0.5], [0.5]], [[0.5], [0.5, True]]], 3, "x[1][1] has 2 entries, not 1"),
        ([[[0.5] * 2] * 3, [[0.5] * 2] * 4], 3, "x[1] has 4 entries, not 3"),
        ([[1, 2], [3, 4]], 1, "x[0] is [1, 2], not a number"),
        ([list(range(30))], 1, "x[0] is [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1..., not a number"),
    ],
    ids=["scalar", "object", "row_not_a_list", "frame_not_a_list", "ragged_rows",
         "ragged_points", "ragged_frames", "too_deep", "long_value_cut"],
)
def test_number_array_names_where_the_nesting_breaks(value, ndim, message):
    with pytest.raises(ValueError) as excinfo:
        number_array(value, ndim, "f.json: x")
    assert str(excinfo.value) == f"f.json: {message}"


@pytest.mark.parametrize(
    "value, ndim, shape",
    [
        ([0.5, 2, -3], 1, (3,)),
        ([[1, 2], [3, 4]], 2, (2, 2)),
        ([[[0.25, 1]], [[2**63, -(2**70)]]], 3, (2, 1, 2)),  # integers beyond int64
        ([1e308, -1e308], 1, (2,)),
        ([], 1, (0,)),
        ([], 3, (0, 0, 0)),
        ([[], []], 3, (2, 0, 0)),
    ],
    ids=["ints_and_floats", "ints", "beyond_int64", "largest_floats", "empty", "empty_clip",
         "empty_frames"],
)
def test_number_array_reads_numbers_as_float64(value, ndim, shape):
    arr = number_array(value, ndim, "f.json: x")
    assert arr.dtype == np.float64 and arr.shape == shape
    assert arr.ravel().tolist() == [float(v) for v in np.array(value, dtype=object).ravel()]


def _isinstance_calls(tree: ast.Module, types: set[str]):
    """Each isinstance call in `tree` whose type, or one of whose type tuple's
    entries, is named in `types`."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(k, ast.Name) and k.id in types for k in kinds):
                yield node


def _offenders(types: set[str], exempt=frozenset()) -> list[str]:
    """module:line of each isinstance call outside jsonio.py that asks about
    one of `types`, but for the (module, call text) pairs in `exempt`."""
    return [
        f"{module}:{call.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if (module := path.relative_to(SRC).as_posix()) != "jsonio.py"
        for call in _isinstance_calls(ast.parse(path.read_text(encoding="utf-8")), types)
        if (module, ast.unparse(call)) not in exempt
    ]


def test_bool_guard_sees_a_bool_alone_or_in_a_type_tuple():
    tree = ast.parse("isinstance(v, bool)\nisinstance(v, (int, bool))\nisinstance(v, (int, float))")
    assert [call.lineno for call in _isinstance_calls(tree, {"bool"})] == [1, 2]


def test_only_jsonio_asks_whether_a_value_is_a_bool():
    assert _offenders({"bool"}) == []


_JSON_CONTAINERS = {"str", "dict", "list"}


def test_kind_guard_sees_a_string_object_or_list_alone_or_in_a_type_tuple():
    tree = ast.parse(
        "isinstance(v, str)\nisinstance(v, dict)\nisinstance(v, list)\n"
        "isinstance(v, (list, tuple, set))\nisinstance(v, (int, float))\nisinstance(v, np.ndarray)"
    )
    assert [call.lineno for call in _isinstance_calls(tree, _JSON_CONTAINERS)] == [1, 2, 3, 4]


def test_only_jsonio_asks_whether_a_value_is_a_string_object_or_list():
    # a parameter spec's named dimension is a Python string, not a JSON value
    assert _offenders(_JSON_CONTAINERS, exempt={("registry.py", "isinstance(dim, str)")}) == []


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "obj",
    [
        0, -7, 0.1, True, None, "caf\u00e9", _NAN, -_INF, {}, [], (),
        {"a": {}, "b": [], "c": {"d": {}, "e": []}},
        [{}, [], [{}, []]],
        {"x": 1, "k": [1.5, "s", None, False]},
        {1: "a", 2: {3: "b"}, 10: 0},
        {"a": {2.5: 0, -1.0: [1], _INF: 2}},
        {True: 0, False: 1},
        {"a": {None: [1]}},
        {"a": [{10: "x", 9: "y"}]},
        {"\u00e9\u4e2d": "\u00fc\U0001f600", "q": '"\\\n'},
        [_NAN, _INF, -_INF, {"n": _NAN}, [[-_INF]]],
        (1, (2, (3, 4)), {"t": (5,)}),
        [[[0.5, 1], [2, 3]], [[4, 5.25]]],
        {"z": [[[1e-300, -0.0]]], "a": [[[[7]]]]},
    ],
    ids=["int", "negative_int", "float", "bool", "null", "non_ascii", "nan", "minus_infinity",
         "empty_object", "empty_list", "empty_tuple", "empty_containers_at_levels_1_2",
         "empty_containers_in_a_list", "scalars_at_levels_1_2", "int_keys_at_levels_0_1",
         "float_keys_at_level_1", "bool_keys", "null_key_at_level_1", "int_keys_at_level_2",
         "non_ascii_keys_and_escapes", "nan_and_infinities", "tuples", "lists_three_deep",
         "lists_four_deep"],
)
def test_write_json_writes_what_one_shot_dumps_writes(tmp_path, obj):
    path = tmp_path / "doc.json"
    write_json(str(path), obj)
    assert path.read_bytes() == (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


@pytest.mark.parametrize(
    "obj",
    [{1: 0, "a": 1}, {"a": {None: 0, 2: 1}}, {"a": [{"b": 0, 3: 1}]}, {"a": {"b": {1: 0, "c": 1}}}],
    ids=["level_0", "level_1", "level_2", "level_3"],
)
def test_write_json_rejects_mixed_key_types_as_dumps_does(tmp_path, obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, sort_keys=True)
    with pytest.raises(TypeError) as got:
        write_json(str(tmp_path / "doc.json"), obj)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "shape", [(), (0,), (3,), (0, 2), (2, 0), (2, 3), (0, 0, 0), (2, 1, 3), (2, 3, 4)]
)
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.bool_])
def test_write_json_writes_an_array_as_its_tolist(tmp_path, shape, dtype):
    arr = np.asarray(np.arange(int(np.prod(shape))).reshape(shape) * 0.37 - 1, dtype=dtype)
    assert isinstance(arr, np.ndarray) and arr.shape == shape
    as_list = arr.tolist()
    path = tmp_path / "doc.json"
    for obj, want in [
        (arr, as_list),
        ({"t": arr, "id": "x"}, {"t": as_list, "id": "x"}),
        ([arr, [arr]], [as_list, [as_list]]),
        ({"a": {"b": arr}}, {"a": {"b": as_list}}),
        ({"a": [{"b": arr}]}, {"a": [{"b": as_list}]}),
    ]:
        write_json(str(path), obj)
        assert path.read_bytes() == (json.dumps(want, sort_keys=True) + "\n").encode("utf-8")


def test_write_json_rejects_what_dumps_cannot_encode(tmp_path):
    for obj in [{"a": {1, 2}}, [np.float32(1.5)], {"a": {"b": [object()]}}]:
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write_json(str(tmp_path / "doc.json"), obj)
