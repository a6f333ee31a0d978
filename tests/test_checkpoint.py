import json

import numpy as np
import pytest

from facecond.checkpoint import (
    build_frgca,
    load_arrays,
    load_model,
    save_arrays,
    save_model,
)
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
    assert forward_loss(model, sample, cfg) == forward_loss(loaded, sample, cfg)


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
    with pytest.raises(ValueError, match=r"checkpoint meta 'use_bias' is False"):
        build_frgca(arrays, {**meta, "use_bias": False})


def test_load_arrays_names_the_tensor_whose_data_disagrees_with_its_shape(tmp_path):
    path = tmp_path / "ck.json"
    save_arrays(str(path), {"a.weight": np.zeros((2, 3)), "a.bias": np.zeros(3)})
    doc = json.loads(path.read_text())
    doc["tensors"]["a.weight"]["data"] = [0.0] * 5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"ck\.json: tensor 'a\.weight': cannot reshape array of size 5"):
        load_arrays(str(path))
