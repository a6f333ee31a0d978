"""Initial parameter values come from one rule, ``registry.init_arrays``.

Each ``init_*`` function must give the arrays the per-layer formulas
spelled out below give: every weight Uniform(-1/sqrt(fan_in),
1/sqrt(fan_in)) drawn from one ``default_rng(seed)`` in checkpoint order,
every bias zero and drawing nothing. ``np.array_equal`` holds them to the
bit.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import facecond
from facecond.frgca import init_frgca
from facecond.frlp import init_frlp
from facecond.geometry import WHOLE_FACE, RegionPartition, default_partition
from facecond.registry import init_arrays
from facecond.toytrain.decoder import init_decoder
from facecond.toytrain.projector import init_vision_projector

SRC = Path(facecond.__file__).parent


def _uniform(rng, out_dim, in_dim):
    bound = 1.0 / np.sqrt(in_dim)
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


def _frlp_formula(d, partition, seed):
    rng = np.random.default_rng(seed)
    arrays = []
    for _, idx in (*partition.groups, *WHOLE_FACE.groups):
        arrays += [_uniform(rng, d, 2 * len(idx)), np.zeros(d)]
    return arrays


def _frgca_formula(d, d_attn, seed):
    rng = np.random.default_rng(seed)
    w_q = _uniform(rng, d_attn, d)
    w_k = _uniform(rng, d_attn, d)
    w_v = _uniform(rng, d_attn, d)
    w_o = _uniform(rng, d, d_attn)
    return [w_q, np.zeros(d_attn), w_k, w_v, np.zeros(d_attn), w_o, np.zeros(d)]


def _vision_formula(d_raw, d, hidden, seed):
    rng = np.random.default_rng(seed)
    w1 = _uniform(rng, hidden, d_raw)
    w2 = _uniform(rng, d, hidden)
    return [w1, np.zeros(hidden), w2, np.zeros(d)]


def _decoder_formula(vocab, d, seed):
    rng = np.random.default_rng(seed)
    embedding = _uniform(rng, vocab, d)
    readout_w = _uniform(rng, vocab, d)
    return [embedding, readout_w, np.zeros(vocab)]


def _assert_bit_equal(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), i


# the toy training shape, the perfbench paper_step shape, an attention
# width unlike d (with a larger vocabulary) and a hidden layer unlike d
CASES = {
    "toy": dict(d=16, d_attn=16, d_raw=8, hidden=16, vocab=16, seed=0),
    "paper_step": dict(d=256, d_attn=256, d_raw=64, hidden=256, vocab=16, seed=3),
    "d_attn_ne_d": dict(d=16, d_attn=24, d_raw=8, hidden=16, vocab=20, seed=11),
    "hidden_ne_d": dict(d=8, d_attn=8, d_raw=5, hidden=12, vocab=16, seed=2),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_every_init_gives_the_per_layer_formulas_bit_for_bit(case):
    d, d_attn, d_raw, hidden, vocab, seed = (
        case[k] for k in ("d", "d_attn", "d_raw", "hidden", "vocab", "seed")
    )
    partition = default_partition()
    _assert_bit_equal(init_frlp(d, partition, seed).arrays(), _frlp_formula(d, partition, seed))
    _assert_bit_equal(
        init_frgca(d, d_attn=d_attn, heads=4, seed=seed).arrays(), _frgca_formula(d, d_attn, seed)
    )
    _assert_bit_equal(
        init_vision_projector(d_raw, d, hidden=hidden, seed=seed).arrays(),
        _vision_formula(d_raw, d, hidden, seed),
    )
    _assert_bit_equal(init_decoder(vocab, d, seed).arrays(), _decoder_formula(vocab, d, seed))


def test_init_frlp_follows_a_custom_partition():
    partition = RegionPartition(
        (("upper", tuple(range(20))), ("middle", tuple(range(20, 50))), ("lower", tuple(range(50, 68))))
    )
    params = init_frlp(8, partition, seed=4)
    assert [w.shape for w in params.weights] == [(8, 40), (8, 60), (8, 36), (8, 136)]
    _assert_bit_equal(params.arrays(), _frlp_formula(8, partition, 4))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: init_frlp(0, default_partition()), "d must be >= 1, got 0"),
        (lambda: init_frgca(0), "d must be >= 1, got 0"),
        (lambda: init_frgca(8, d_attn=-8), "d_attn must be >= 1, got -8"),
        (lambda: init_vision_projector(0, 4), "d_raw must be >= 1, got 0"),
        (lambda: init_vision_projector(3, 4, hidden=0), "hidden must be >= 1, got 0"),
        (lambda: init_decoder(8, 0), "d must be >= 1, got 0"),
    ],
    ids=["frlp-d", "frgca-d", "frgca-d_attn", "vision-d_raw", "vision-hidden", "decoder-d"],
)
def test_a_dimension_below_1_fails_naming_it(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


def test_init_arrays_draws_only_the_weights():
    spec = (("b", ("n",)), ("w", ("n", 3)), ("c", (2,)))
    b, w, c = init_arrays(spec, {"n": 4}, seed=5)
    assert np.array_equal(b, np.zeros(4)) and np.array_equal(c, np.zeros(2))
    assert np.array_equal(w, _uniform(np.random.default_rng(5), 4, 3))


def _drawing_init_calls(tree: ast.Module):
    """(function, line) of each `default_rng` or `uniform` call inside a
    function whose name starts with `init_`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("init_"):
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name in ("default_rng", "uniform"):
                        yield node.name, call.lineno


def test_init_guard_sees_a_draw_inside_an_init_function():
    tree = ast.parse(
        "def init_a(rng):\n    return rng.uniform(-1, 1, size=3)\n"
        "def init_b():\n    rng = np.random.default_rng(0)\n"
        "def init_c():\n    def affine():\n        return default_rng(1)\n"
        "def synth(rng):\n    return rng.uniform(0, 1)\n"
        "def init_d(spec):\n    return init_arrays(spec, {}, 0)\n"
    )
    assert list(_drawing_init_calls(tree)) == [("init_a", 2), ("init_b", 4), ("init_c", 7)]


def test_only_registry_draws_initial_values():
    offenders = [
        f"{module}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        if (module := path.relative_to(SRC).as_posix()) != "registry.py"
        for name, line in _drawing_init_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []
