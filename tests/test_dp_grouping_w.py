"""Unit tests for the grouping transform at every bandwidth w (Section 6.1)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp import (
    banded_objective,
    brute_force_minimum,
    eliminate,
    group_variables_to_serial,
    solve_backward,
)


class TestBandedObjectiveW:
    def test_bandwidth_3_matches_original_structure(self, rng):
        obj = banded_objective(rng, [2, 3, 2, 3], 3)
        assert [tvars for tvars, _ in obj.terms] == [
            ("V1", "V2", "V3"),
            ("V2", "V3", "V4"),
        ]

    def test_bandwidth_validation(self, rng):
        with pytest.raises(ValueError):
            banded_objective(rng, [2, 2], 1)
        with pytest.raises(ValueError):
            banded_objective(rng, [2, 2], 4)

    def test_elimination_optimal(self, rng):
        obj = banded_objective(rng, [2, 3, 2, 3, 2], 4)
        res = eliminate(obj, joint_tail=3)
        ref, _ = brute_force_minimum(obj)
        assert np.isclose(res.optimum, ref)


def _grouping_digest(w):
    """sha256 of the grouped layers (dtype, shape, bytes) and composite
    states of ten seeded bandwidth-``w`` objectives."""
    h = hashlib.sha256()
    for seed in range(10):
        rng = np.random.default_rng(100 * w + seed)
        sizes = [int(s) for s in rng.integers(2, 4, size=w + 1 + seed % 3)]
        graph, states = group_variables_to_serial(banded_objective(rng, sizes, w), w)
        for layer in graph.costs:
            h.update(repr((layer.dtype.str, layer.shape)).encode())
            h.update(np.ascontiguousarray(layer).tobytes())
        h.update(json.dumps(states).encode())
    return h.hexdigest()


#: :func:`_grouping_digest` per bandwidth, recorded on the separate
#: bandwidth-3 (eq. 41) and general transforms that this one replaced
#: (both gave the bandwidth-3 digest).
GROUPING_DIGESTS = {
    2: "b2f21236984de5c98819814d0c0ed6f3dbfda9d079b74a9bdb42e4954dc95c62",
    3: "f466bb17bbb817afa17a4d60db28d90e907d9aa370243a96cbae60e03eafcc6f",
    4: "ddfbaa4dea25a9c356c9f79c89a216606b415081e054df941a3f11b1d21d01c4",
}


class TestGroupingW:
    @pytest.mark.parametrize("w", sorted(GROUPING_DIGESTS))
    def test_matches_recorded_digests(self, w):
        assert _grouping_digest(w) == GROUPING_DIGESTS[w]

    def test_bandwidth_4_equivalence(self, rng):
        obj = banded_objective(rng, [2, 3, 2, 3, 2], 4)
        g, states = group_variables_to_serial(obj, 4)
        direct = eliminate(obj, joint_tail=3)
        assert np.isclose(solve_backward(g).optimum, direct.optimum)
        # Composite domains are products of w-1 = 3 originals.
        assert g.stage_sizes == (2 * 3 * 2, 3 * 2 * 3, 2 * 3 * 2)
        assert len(states[0][0]) == 3

    def test_bandwidth_2_is_identity_chain(self, rng):
        obj = banded_objective(rng, [3, 4, 2], 2)
        g, states = group_variables_to_serial(obj, 2)
        assert g.stage_sizes == (3, 4, 2)  # composites = single originals
        ref = eliminate(obj, joint_tail=1)
        assert np.isclose(solve_backward(g).optimum, ref.optimum)

    def test_composite_path_decodes(self, rng):
        obj = banded_objective(rng, [2, 2, 3, 2, 2], 4)
        g, states = group_variables_to_serial(obj, 4)
        sol = solve_backward(g)
        assign = {}
        for stage, node in enumerate(sol.path.nodes):
            for d, idx in enumerate(states[stage][node]):
                assign[f"V{stage + d + 1}"] = idx
        assert np.isclose(obj.evaluate(assign), sol.optimum)

    def test_inconsistent_transitions_blocked(self, rng):
        obj = banded_objective(rng, [2, 2, 2, 2], 3)
        g, states = group_variables_to_serial(obj, 3)
        for a, row in enumerate(states[0]):
            for b, col in enumerate(states[1]):
                if row[1:] != col[:-1]:
                    assert np.isinf(g.costs[0][a, b])
                else:
                    assert np.isfinite(g.costs[0][a, b])

    def test_non_banded_rejected(self, rng):
        obj = banded_objective(rng, [2, 2, 2, 2])
        with pytest.raises(ValueError, match="bandwidth-4"):
            group_variables_to_serial(obj, 4)
        with pytest.raises(ValueError):
            group_variables_to_serial(obj, 1)


@given(
    seed=st.integers(min_value=0, max_value=300),
    w=st.integers(min_value=2, max_value=4),
    extra=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=25, deadline=None)
def test_property_grouping_w_equals_elimination(seed, w, extra):
    rng = np.random.default_rng(seed)
    n = w + 1 + extra
    sizes = list(rng.integers(2, 4, size=n))
    obj = banded_objective(rng, sizes, w)
    g, _states = group_variables_to_serial(obj, w)
    direct = eliminate(obj, joint_tail=min(w - 1, n - 1) if w > 2 else 1)
    assert np.isclose(solve_backward(g).optimum, direct.optimum)
