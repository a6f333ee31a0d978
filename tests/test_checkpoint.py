import json

import numpy as np
import pytest

from facecond.checkpoint import (
    FORMAT_TAG,
    build_frgca,
    load_arrays,
    load_model,
    save_arrays,
    save_model,
)
from facecond.registry import take
from facecond.toytrain import TrainConfig, forward_loss, init_model, model_arrays, synth_dataset


def test_array_archive_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a.weight": rng.normal(size=(3, 5)),
        "a.bias": rng.normal(size=3),
    }
    path = tmp_path / "ck.json"
    save_arrays(str(path), arrays, meta={"heads": 2})
    loaded, meta = load_arrays(str(path))
    assert meta == {"heads": 2}
    for key, arr in arrays.items():
        assert np.array_equal(loaded[key], arr)
        assert loaded[key].dtype == np.float64


def test_model_checkpoint_roundtrip(tmp_path):
    cfg = TrainConfig(grid_rows=2, grid_cols=2, d=8, heads=2, d_raw=4, vocab=16, seed=5)
    model = init_model(cfg)
    path = tmp_path / "model.json"
    save_model(str(path), model)
    loaded = load_model(str(path))
    original = model_arrays(model)
    restored = model_arrays(loaded)
    assert set(original) == set(restored)
    for key in original:
        assert np.array_equal(original[key], restored[key]), key
    assert loaded.frgca.heads == model.frgca.heads
    assert loaded.grid == model.grid
    # the restored model computes the identical loss
    sample = synth_dataset(seed=1, size=1, n_patches=4, d_raw=4, vocab=16)[0]
    assert forward_loss(model, sample, cfg)[0] == forward_loss(loaded, sample, cfg)[0]


def test_checkpoint_key_names(tmp_path):
    cfg = TrainConfig(grid_rows=2, grid_cols=2, d=4, heads=2, d_raw=3, vocab=12)
    model = init_model(cfg)
    path = tmp_path / "model.json"
    save_model(str(path), model)
    arrays, _ = load_arrays(str(path))
    for i in range(9):
        assert f"frlp.local.{i}.weight" in arrays
        assert f"frlp.local.{i}.bias" in arrays
    for key in (
        "frlp.global.weight",
        "frlp.global.bias",
        "frgca.w_q.weight",
        "frgca.w_q.bias",
        "frgca.w_k.weight",
        "frgca.w_v.weight",
        "frgca.w_o.weight",
        "frgca.w_o.bias",
        "vision.fc1.weight",
        "vision.fc2.bias",
        "decoder.embedding.weight",
        "decoder.readout.weight",
        "decoder.readout.bias",
    ):
        assert key in arrays, key
    assert "frgca.w_k.bias" not in arrays  # a key bias cannot change FRGCA's output
    assert len(arrays) == 34


def _saved_arrays(tmp_path):
    cfg = TrainConfig(grid_rows=2, grid_cols=2, d=8, heads=2, d_raw=4, vocab=16)
    path = tmp_path / "model.json"
    save_model(str(path), init_model(cfg))
    return path, *load_arrays(str(path))


def test_load_rejects_missing_tensor(tmp_path):
    path, arrays, meta = _saved_arrays(tmp_path)
    del arrays["vision.fc2.bias"]
    save_arrays(str(path), arrays, meta)
    with pytest.raises(ValueError, match=r"missing tensor 'vision\.fc2\.bias'"):
        load_model(str(path))


def test_build_frgca_rejects_key_shape_disagreeing_with_query(tmp_path):
    _, arrays, meta = _saved_arrays(tmp_path)
    arrays["frgca.w_k.weight"] = arrays["frgca.w_k.weight"][:4]
    with pytest.raises(ValueError, match=r"frgca\.w_k\.weight has shape \(4, 8\), expected \(8, 8\)"):
        build_frgca(arrays, meta)


def test_build_frgca_rejects_heads_not_dividing_width(tmp_path):
    _, arrays, meta = _saved_arrays(tmp_path)
    with pytest.raises(ValueError, match=r"d_attn=8 not divisible by heads=3"):
        build_frgca(arrays, {**meta, "heads": 3})


def test_build_frgca_accepts_only_the_one_configuration(tmp_path):
    _, arrays, meta = _saved_arrays(tmp_path)
    assert (meta["scale"], meta["use_bias"]) == ("per_head", True)
    build_frgca(arrays, {"heads": 2})  # archives without these keys load
    with pytest.raises(ValueError, match=r"checkpoint meta 'scale' is 'total'"):
        build_frgca(arrays, {**meta, "scale": "total"})
    for use_bias in (False, 1, 1.0):  # 1 == 1.0 == True, yet none is the boolean
        with pytest.raises(ValueError, match=rf"checkpoint meta 'use_bias' is {use_bias!r};"):
            build_frgca(arrays, {**meta, "use_bias": use_bias})


@pytest.mark.parametrize("key", ["heads", "grid_rows", "grid_cols"])
@pytest.mark.parametrize("value", [True, 2.0, "2", None], ids=["bool", "float", "string", "null"])
def test_load_model_rejects_checkpoint_meta_that_is_not_an_integer(tmp_path, key, value):
    path, arrays, meta = _saved_arrays(tmp_path)
    save_arrays(str(path), arrays, {**meta, key: value})
    with pytest.raises(ValueError) as excinfo:
        load_model(str(path))
    shown = json.dumps(value)
    assert str(excinfo.value) == f"{path}: checkpoint meta {key!r} is {shown}, not an integer"


@pytest.mark.parametrize("key", ["heads", "grid_rows", "grid_cols"])
@pytest.mark.parametrize("value", [0, -1])
def test_load_model_names_the_checkpoint_meta_below_1(tmp_path, key, value):
    path, arrays, meta = _saved_arrays(tmp_path)
    save_arrays(str(path), arrays, {**meta, key: value})
    with pytest.raises(ValueError) as excinfo:
        load_model(str(path))
    assert str(excinfo.value) == f"{path}: checkpoint meta {key!r} must be >= 1, got {value}"


def test_load_arrays_names_the_tensor_whose_data_disagrees_with_its_shape(tmp_path):
    path = tmp_path / "ck.json"
    save_arrays(str(path), {"a.weight": np.zeros((2, 3)), "a.bias": np.zeros(3)})
    doc = json.loads(path.read_text())
    doc["tensors"]["a.weight"]["data"] = [0.0] * 5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"ck\.json: tensor 'a\.weight': cannot reshape array of size 5"):
        load_arrays(str(path))


@pytest.mark.parametrize(
    "bad, text",
    [
        (True, "true, not a number"),
        (None, "null, not a number"),
        (float("nan"), "NaN, a non-finite value"),
        ("1.5", '"1.5", not a number'),
    ],
    ids=["bool", "null", "nan", "numeric_string"],
)
def test_load_arrays_names_the_tensor_and_index_of_data_that_is_not_a_number(tmp_path, bad, text):
    path = tmp_path / "ck.json"
    save_arrays(str(path), {"a.weight": np.zeros((2, 3)), "a.bias": np.zeros(3)})
    doc = json.loads(path.read_text())
    doc["tensors"]["a.weight"]["data"][4] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as excinfo:
        load_arrays(str(path))
    assert str(excinfo.value) == f"{path}: tensor 'a.weight': data[4] is {text}"


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "document is [1], not an object"),
        ({"format": "other"}, "not a facecond-checkpoint-v1 archive"),
        ({"format": FORMAT_TAG, "tensors": [1]}, "'tensors' is [1], not an object"),
        ({"format": FORMAT_TAG}, "missing key 'tensors'"),
        ({"format": FORMAT_TAG, "tensors": {}, "meta": [1]}, "'meta' is [1], not an object"),
        ({"format": FORMAT_TAG, "tensors": {"a.bias": [0.0]}},
         "tensor 'a.bias' is [0.0], not an object"),
    ],
    ids=["list", "other_format", "tensors_list", "no_tensors", "meta_list", "entry_list"],
)
def test_load_arrays_names_the_file_for_a_document_of_the_wrong_shape(tmp_path, doc, message):
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as excinfo:
        load_arrays(str(path))
    assert str(excinfo.value) == f"{path}: {message}"


def _with_narrow_frgca(arrays):
    """`arrays` with the FRGCA tensors of a d=4 model beside its d=8 FRLP."""
    narrow = model_arrays(init_model(TrainConfig(grid_rows=2, grid_cols=2, d=4, heads=2)))
    return {**arrays, **{k: v for k, v in narrow.items() if k.startswith("frgca.")}}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda arrays: {k: v for k, v in arrays.items() if k != "frgca.w_v.bias"},
         "checkpoint is missing tensor 'frgca.w_v.bias'"),
        (_with_narrow_frgca, "frgca.w_q.weight has shape (4, 4), expected (4, 8)"),
        (lambda arrays: {**arrays, "frgca.w_k.bias": np.zeros(8)},
         "checkpoint has unknown tensor 'frgca.w_k.bias'"),
    ],
    ids=["missing_tensor", "frgca_narrower_than_frlp", "key_bias"],
)
def test_load_model_errors_name_the_file(tmp_path, edit, message):
    path, arrays, meta = _saved_arrays(tmp_path)
    save_arrays(str(path), edit(arrays), meta)
    with pytest.raises(ValueError) as excinfo:
        load_model(str(path))
    assert str(excinfo.value) == f"{path}: {message}"


# one tensor too many under each group prefix, or under none
@pytest.mark.parametrize(
    "name",
    ["frlp.local.9.weight", "frgca.w_k.bias", "vision.fc3.weight", "decoder.extra", "extra",
     "visionx.w"],
    ids=["frlp", "frgca", "vision", "decoder", "no_prefix", "near_prefix"],
)
def test_load_model_rejects_an_unknown_tensor(tmp_path, name):
    path, arrays, meta = _saved_arrays(tmp_path)
    save_arrays(str(path), {**arrays, name: np.zeros((8, 4))}, meta)
    with pytest.raises(ValueError) as excinfo:
        load_model(str(path))
    assert str(excinfo.value) == f"{path}: checkpoint has unknown tensor {name!r}"


def test_take_reads_only_its_own_prefix():
    spec = (("w", (2,)),)
    archive = {"a.w": np.zeros(2), "b.w": np.ones(2), "b.extra": np.ones(3)}
    assert [x.tolist() for x in take(archive, spec, "a.")] == [[0.0, 0.0]]
    with pytest.raises(ValueError, match=r"^checkpoint has unknown tensor 'b\.extra'$"):
        take(archive, spec, "b.")
