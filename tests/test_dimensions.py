import ast
import re
from pathlib import Path

import numpy as np
import pytest

import facecond
from facecond.frgca import frgca_backward, frgca_forward, init_frgca
from facecond.frlp import frlp_backward, init_frlp
from facecond.geometry import LandmarkClip, default_partition, rpp_mask
from facecond.registry import empty_like, take
from facecond.toytrain.decoder import init_decoder, sequence_assemble
from facecond.toytrain.projector import init_vision_projector, vision_backward, vision_project

SRC = Path(facecond.__file__).parent


def _frgca(h_v=(2, 3, 16), h_l=(2, 10, 16), mask=(2, 3, 10)):
    """frgca_forward at d = 16 on zero arrays of the given shapes."""
    return frgca_forward(np.zeros(h_v), np.zeros(h_l), np.zeros(mask), init_frgca(16, heads=4))


def _frgca_backward(cotangent):
    params = init_frgca(16, heads=4)
    _, cache = frgca_forward(
        np.zeros((2, 3, 16)), np.zeros((2, 10, 16)), np.zeros((2, 3, 10)),
        params, return_cache=True,
    )
    return frgca_backward(np.zeros(cotangent), cache, empty_like(params))


def _frlp_backward(cotangent):
    clip = LandmarkClip(np.full((2, 68, 2), 0.5))
    partition = default_partition()
    params = init_frlp(4, partition)
    return frlp_backward(np.zeros(cotangent), clip, partition, params, out=empty_like(params))


def _vision_backward(cotangent):
    params = init_vision_projector(3, 4)
    _, cache = vision_project(np.zeros((2, 5, 3)), params)
    return vision_backward(np.zeros(cotangent), cache, empty_like(params))


# one wrong-shaped array per layer entry, and the error it raises
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: take({"a": np.zeros((4, 3))}, (("a", ("d", 4)),), "", {"d": 4}),
         "a has shape (4, 3), expected (4, 4)"),
        (lambda: take({"a": np.zeros(4)}, (("a", ("d", "e")),), ""),
         "a has shape (4,), expected (d, e)"),
        (lambda: _frgca(h_v=(3, 16)), "h_v has shape (3, 16), expected (T, N, 16)"),
        (lambda: _frgca(h_v=(2, 3, 8)), "h_v has shape (2, 3, 8), expected (2, 3, 16)"),
        (lambda: _frgca(h_l=(3, 10, 16)), "h_l has shape (3, 10, 16), expected (2, 10, 16)"),
        (lambda: _frgca(h_l=(2, 10, 8)), "h_l has shape (2, 10, 8), expected (2, 10, 16)"),
        (lambda: _frgca(mask=(2, 3, 9)), "mask has shape (2, 3, 9), expected (2, 3, 10)"),
        (lambda: _frgca_backward((2, 3, 8)), "cotangent has shape (2, 3, 8), expected (2, 3, 16)"),
        (lambda: _frlp_backward((3, 9, 4)), "cotangent has shape (3, 9, 4), expected (2, 9, 4)"),
        (lambda: vision_project(np.zeros((2, 5, 4)), init_vision_projector(3, 4)),
         "raw has shape (2, 5, 4), expected (2, 5, 3)"),
        (lambda: _vision_backward((1, 1, 4)), "cotangent has shape (1, 1, 4), expected (2, 5, 4)"),
        (lambda: sequence_assemble(np.zeros((2, 5, 3)), [], [], init_decoder(8, 4)),
         "visual has shape (2, 5, 3), expected (2, 5, 4)"),
        (lambda: LandmarkClip(np.zeros((68, 2))), "landmarks has shape (68, 2), expected (T, 68, 2)"),
        (lambda: LandmarkClip(np.zeros((1, 67, 2))),
         "landmarks has shape (1, 67, 2), expected (1, 68, 2)"),
        (lambda: rpp_mask(np.zeros((9, 2)), np.zeros((16, 3))),
         "patches has shape (16, 3), expected (16, 2)"),
    ],
    ids=[
        "take", "take-axes", "frgca-h_v-axes", "frgca-h_v-d", "frgca-h_l-T", "frgca-h_l-d",
        "frgca-mask", "frgca_backward", "frlp_backward", "vision_project", "vision_backward",
        "sequence_assemble", "landmarks-axes", "landmarks-points", "rpp_mask-patches",
    ],
)
def test_a_wrong_shaped_array_fails_naming_its_shape(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


def _raising_axis_tests(tree: ast.Module):
    """Each `if` in `tree` whose test reads an `.ndim` and under which, in
    either branch, a `raise` stands."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.If)
            and any(isinstance(n, ast.Attribute) and n.attr == "ndim" for n in ast.walk(node.test))
            and any(isinstance(n, ast.Raise) for n in ast.walk(node))
        ):
            yield node


def test_dimension_guard_sees_an_axis_test_that_raises():
    tree = ast.parse(
        "if a.ndim != 3:\n    raise ValueError\n"
        "if a.ndim < 2 or a.shape[-1] != 2:\n    raise ValueError(a.shape)\n"
        "if a.ndim == 2:\n    a = a.T\n"
        "if x:\n    pass\nelif a.ndim:\n    if y:\n        raise ValueError\n"
        "if a.ndim == 3:\n    pass\nelse:\n    raise ValueError\n"
        "if a.shape != (2, 3):\n    raise ValueError\n"
    )
    assert sorted(node.lineno for node in _raising_axis_tests(tree)) == [1, 3, 9, 12]


def test_only_registry_tests_an_arrays_axes_before_raising():
    # rpp_mask's region centroids take leading axes, which no fixed shape states
    exempt = {("geometry.py", "regions.ndim < 2 or regions.shape[-1] != 2")}
    offenders = [
        f"{module}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if (module := path.relative_to(SRC).as_posix()) != "registry.py"
        for node in _raising_axis_tests(ast.parse(path.read_text(encoding="utf-8")))
        if (module, ast.unparse(node.test)) not in exempt
    ]
    assert offenders == []
