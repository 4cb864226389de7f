"""Pins on the Section-4 AND-tree products and task graph.

The divide-and-conquer product of a matrix string is one binary
AND-tree: ``N`` leaves, ``N − 1`` multiplications.  Floating-point ⊗/⊕
are not exactly associative, so the split rule of that tree shows in the
last bits of the product.  These sha256 digests pin
:func:`~repro.dp.solve_polyadic`'s cost matrix,
:func:`~repro.dp.stage_cost_matrix` over inner spans (odd first stages
included) and :func:`~repro.semiring.chain_product_tree` on seeded
ragged graphs under three semirings, at string lengths that are and are
not powers of two; the task names of
:func:`~repro.dataflow.tasks_balanced_tree` pin the tree's ranges.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.dataflow import tasks_balanced_tree
from repro.dp import solve_polyadic, stage_cost_matrix
from repro.graphs import random_multistage
from repro.semiring import MAX_PLUS, MIN_PLUS, PLUS_TIMES, chain_product_tree

SEMIRINGS = {"min-plus": MIN_PLUS, "max-plus": MAX_PLUS, "plus-times": PLUS_TIMES}

#: Edge-layer counts (string lengths) of the pinned graphs.
LAYERS = (5, 8, 12, 23)


def _graph(name, layers):
    rng = np.random.default_rng(1000 + 7 * layers + len(name))
    sizes = rng.integers(1, 6, size=layers + 1)
    return random_multistage(rng, sizes, low=0.0, high=2.0, semiring=SEMIRINGS[name])


def _digest(a):
    a = np.ascontiguousarray(a)
    blob = f"{a.dtype.str}{a.shape}".encode() + a.tobytes()
    return hashlib.sha256(blob).hexdigest()[:16]


def _spans(layers):
    """Inner ``(i, j)`` stage spans: odd and even first stages."""
    return ((1, layers), (3, layers - 1), (0, layers - 2))


CASES = [(name, layers) for name in SEMIRINGS for layers in LAYERS]
IDS = [f"{name}-{layers}" for name, layers in CASES]

#: ``solve_polyadic(g).cost_matrix`` digest per case.
POLYADIC = {
    "min-plus-5": "4d7bc935fd434a09",
    "min-plus-8": "c53e9f3e57d59b5a",
    "min-plus-12": "bdf77103033e2d93",
    "min-plus-23": "87fe188c11e52c14",
    "max-plus-5": "6c8fb6523e98bda7",
    "max-plus-8": "0c822102a212de72",
    "max-plus-12": "6bb00f69bf5562f7",
    "max-plus-23": "38a7905da0a5624f",
    "plus-times-5": "ac4592b8b4135062",
    "plus-times-8": "16eb25d576609c20",
    "plus-times-12": "82c0b3501952cdfe",
    "plus-times-23": "d25d2d1035d58537",
}

#: ``stage_cost_matrix(g, i, j)`` digests per case, one per ``_spans`` span.
STAGE = {
    "min-plus-5": (
        "254632220039dd15",
        "5463fa480f7ffcdc",
        "435bed4d5ec4791c",
    ),
    "min-plus-8": (
        "3bb83dfe8f002111",
        "461d929bb55e2901",
        "75f9a62f2e7bfc8e",
    ),
    "min-plus-12": (
        "ae176836407225fc",
        "5a28d6621d0f8e55",
        "8c0906b39b8dc3f3",
    ),
    "min-plus-23": (
        "6e1b2c04c6836e54",
        "76ba46ff2342e40c",
        "7006525edbf649e4",
    ),
    "max-plus-5": (
        "a338224602a9e67f",
        "5463fa480f7ffcdc",
        "a55d184b16b13931",
    ),
    "max-plus-8": (
        "74042574b9fdd3d1",
        "1cbfbd6d0454373f",
        "a256faca246a56b0",
    ),
    "max-plus-12": (
        "98b0cba20209702e",
        "eaa8b0987ba57fa9",
        "9f8951af382c895e",
    ),
    "max-plus-23": (
        "e7b9498984577643",
        "01a16f23dc2a78bc",
        "09144704e3fc8b24",
    ),
    "plus-times-5": (
        "835ef5a64879048f",
        "2ebb7010f375160c",
        "79a1b9edc3ca196a",
    ),
    "plus-times-8": (
        "7e31e49f89ac9d66",
        "d83fec3541467c94",
        "2c4007538389ed86",
    ),
    "plus-times-12": (
        "59791ab5082e2b89",
        "166c54f85c0a463e",
        "80a745d05014dda9",
    ),
    "plus-times-23": (
        "a1b848a396ed0dcd",
        "c1a79483eb8f778a",
        "80edaa864c0e406b",
    ),
}

#: ``chain_product_tree(sr, g.as_matrices())`` digest per case: the same
#: tree as ``solve_polyadic``, so the same digests.
CHAIN_TREE = {
    "min-plus-5": "4d7bc935fd434a09",
    "min-plus-8": "c53e9f3e57d59b5a",
    "min-plus-12": "bdf77103033e2d93",
    "min-plus-23": "87fe188c11e52c14",
    "max-plus-5": "6c8fb6523e98bda7",
    "max-plus-8": "0c822102a212de72",
    "max-plus-12": "6bb00f69bf5562f7",
    "max-plus-23": "38a7905da0a5624f",
    "plus-times-5": "ac4592b8b4135062",
    "plus-times-8": "16eb25d576609c20",
    "plus-times-12": "82c0b3501952cdfe",
    "plus-times-23": "d25d2d1035d58537",
}


@pytest.mark.parametrize("name,layers", CASES, ids=IDS)
def test_polyadic_cost_matrix_digest(name, layers):
    got = _digest(solve_polyadic(_graph(name, layers)).cost_matrix)
    assert got == POLYADIC[f"{name}-{layers}"]


@pytest.mark.parametrize("name,layers", CASES, ids=IDS)
def test_stage_cost_matrix_digests(name, layers):
    g = _graph(name, layers)
    got = tuple(_digest(stage_cost_matrix(g, i, j)) for i, j in _spans(layers))
    assert got == STAGE[f"{name}-{layers}"]


@pytest.mark.parametrize("name,layers", CASES, ids=IDS)
def test_chain_product_tree_digest(name, layers):
    g = _graph(name, layers)
    got = _digest(chain_product_tree(g.semiring, g.as_matrices()))
    assert got == CHAIN_TREE[f"{name}-{layers}"]


#: ``tasks_balanced_tree(n)`` as ``(name, deps)`` in emission order.
TASK_TREES = {
    1: [
        ("t0_1", ()),
    ],
    2: [
        ("t0_2", ()),
    ],
    3: [
        ("t1_3", ()),
        ("t0_3", ("t1_3",)),
    ],
    5: [
        ("t0_2", ()),
        ("t3_5", ()),
        ("t2_5", ("t3_5",)),
        ("t0_5", ("t0_2", "t2_5")),
    ],
    6: [
        ("t1_3", ()),
        ("t0_3", ("t1_3",)),
        ("t4_6", ()),
        ("t3_6", ("t4_6",)),
        ("t0_6", ("t0_3", "t3_6")),
    ],
    7: [
        ("t1_3", ()),
        ("t0_3", ("t1_3",)),
        ("t3_5", ()),
        ("t5_7", ()),
        ("t3_7", ("t3_5", "t5_7")),
        ("t0_7", ("t0_3", "t3_7")),
    ],
}


@pytest.mark.parametrize("n", sorted(TASK_TREES))
def test_task_tree_names(n):
    tasks, root = tasks_balanced_tree(n)
    assert [(t.name, t.deps) for t in tasks] == TASK_TREES[n]
    assert root == tasks[-1].name
