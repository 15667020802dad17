"""Cartan matrix validation, the builtin registry, and pairings."""

import random
from dataclasses import FrozenInstanceError

import pytest

from conftest import battery_types, dominant_weights, random_cartan
from klrdim.cartan import (
    RootElement,
    Weight,
    builtin_cartan,
    cartan_from_json,
    root_pairing,
    tuple_content,
    validate_cartan,
)
from klrdim.errors import (
    BadDiagonal,
    BadRank,
    BadShape,
    BadSign,
    NotSymmetrizable,
    OutOfRange,
    UnknownType,
)
from oracles import act_on_tuple


class TestValidate:
    def test_symmetric_matrix(self):
        c = validate_cartan([[2, -1], [-1, 2]])
        assert c.symmetrizer == (1, 1)

    def test_minimal_symmetrizer_brute_force(self):
        # independent route: search the smallest positive pair directly
        mat = [[2, -2], [-1, 2]]
        best = None
        for d1 in range(1, 10):
            for d2 in range(1, 10):
                if d1 * -2 == d2 * -1:
                    if best is None or (d1 + d2) < sum(best):
                        best = (d1, d2)
        assert best == (1, 2)
        assert validate_cartan(mat).symmetrizer == best

    def test_bad_sign(self):
        with pytest.raises(BadSign):
            validate_cartan([[2, -1], [3, 2]])

    def test_zero_pattern_asymmetry(self):
        with pytest.raises(BadSign):
            validate_cartan([[2, -1], [0, 2]])

    def test_bad_diagonal(self):
        with pytest.raises(BadDiagonal):
            validate_cartan([[1, -1], [-1, 2]])

    def test_not_square(self):
        with pytest.raises(BadShape):
            validate_cartan([[2, -1]])
        with pytest.raises(BadShape):
            validate_cartan([])

    @pytest.mark.parametrize("matrix", [
        [[2.5]], [[-1.7]], [[2.0]], [["a"]], [[True]], [[2, -1], [None, 2]],
        5, "2", {"a": 1}, [2], [[2], 3], None,
    ])
    def test_non_integer_entries_and_shapes(self, matrix):
        with pytest.raises(BadShape):
            validate_cartan(matrix)

    def test_not_symmetrizable_cycle(self):
        # the triangle ratios multiply to 1/2 around the cycle
        with pytest.raises(NotSymmetrizable):
            validate_cartan([[2, -1, -1], [-1, 2, -1], [-2, -1, 2]])

    def test_components_scaled_independently(self):
        c = validate_cartan(
            [[2, -2, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -3, 2]]
        )
        assert c.symmetrizer == (1, 2, 3, 1)

    def test_random_matrices_revalidate(self):
        rng = random.Random(7)
        for _ in range(25):
            c = random_cartan(rng)
            again = validate_cartan(c.matrix)
            assert again.symmetrizer == c.symmetrizer


class TestRegistry:
    def test_a2(self):
        assert builtin_cartan("A2").matrix == ((2, -1), (-1, 2))

    def test_a1_affine(self):
        assert builtin_cartan("A1~").matrix == ((2, -2), (-2, 2))

    def test_a3(self):
        assert builtin_cartan("A3").matrix == (
            (2, -1, 0),
            (-1, 2, -1),
            (0, -1, 2),
        )

    def test_c2_symmetrizer(self):
        c = builtin_cartan("C2")
        assert c.matrix == ((2, -2), (-1, 2))
        assert c.symmetrizer == (1, 2)

    def test_affine_cycles(self):
        c = builtin_cartan("A2~")
        assert c.matrix == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
        assert builtin_cartan("C2~").matrix == ((2, -1, 0), (-2, 2, -2), (0, -1, 2))

    def test_twisted(self):
        assert builtin_cartan("A2^2").matrix == ((2, -4), (-1, 2))
        assert builtin_cartan("A4^2").symmetrizer == (1, 2, 4)
        assert builtin_cartan("D3^2").symmetrizer == (1, 2, 1)

    @pytest.mark.parametrize(
        "name",
        ["A1", "A5", "B2", "B4", "C3", "D4", "D5", "E6", "E7", "E8", "F4", "G2",
         "A1~", "A3~", "C2~", "C3~", "A2^2", "A4^2", "A6^2", "D3^2", "D5^2"],
    )
    def test_registry_revalidates(self, name):
        c = builtin_cartan(name)
        assert validate_cartan(c.matrix) == c

    def test_bad_ranks(self):
        for name in ("A0", "B1", "C1", "D3", "E5", "F3", "G4", "A0~", "C1~", "A3^2", "D2^2"):
            with pytest.raises(BadRank):
                builtin_cartan(name)

    def test_unknown(self):
        for name in ("H3", "A2*", "foo", "B2~", "G2^2"):
            with pytest.raises(UnknownType):
                builtin_cartan(name)

    def test_lookups_share_one_instance(self):
        assert builtin_cartan("A2") is builtin_cartan("A2")
        assert builtin_cartan("a2") == builtin_cartan("A2")
        assert builtin_cartan("a2").matrix == ((2, -1), (-1, 2))

    def test_bad_names_raise_on_every_call(self):
        # "B2~" and "G2^2" pass the name pattern and fail inside the cached
        # lookup, like the bad ranks.
        for _ in range(3):
            for name in ("H3", "foo", "B2~", "G2^2"):
                with pytest.raises(UnknownType):
                    builtin_cartan(name)
            for name in ("A0", "D3", "A3^2"):
                with pytest.raises(BadRank):
                    builtin_cartan(name)

    def test_shared_instance_is_frozen(self):
        c = builtin_cartan("C2")
        with pytest.raises(FrozenInstanceError):
            c.matrix = ((2, -1), (-1, 2))
        with pytest.raises(FrozenInstanceError):
            c.symmetrizer = (1, 1)
        assert builtin_cartan("C2").symmetrizer == (1, 2)


class TestJson:
    def test_default_labels(self):
        c, labels = cartan_from_json({"matrix": [[2, -1], [-1, 2]]})
        assert labels == [1, 2]
        assert c.symmetrizer == (1, 1)

    def test_explicit_labels(self):
        _, labels = cartan_from_json({"matrix": [[2]], "labels": [0]})
        assert labels == [0]

    def test_bad_labels(self):
        with pytest.raises(BadShape):
            cartan_from_json({"matrix": [[2, -1], [-1, 2]], "labels": [1]})
        with pytest.raises(BadShape):
            cartan_from_json({"matrix": [[2, -1], [-1, 2]], "labels": [1, 1]})

    @pytest.mark.parametrize("doc", [[], [[2]], "A2", {"labels": [1]}])
    def test_not_an_object_with_a_matrix(self, doc):
        with pytest.raises(BadShape, match="JSON object"):
            cartan_from_json(doc)

    @pytest.mark.parametrize("labels", [["x"], [1.0], [True], 3, "1", {"1": 1}])
    def test_non_integer_labels(self, labels):
        with pytest.raises(BadShape):
            cartan_from_json({"matrix": [[2]], "labels": labels})


class TestPairings:
    def test_root_pairing_examples(self):
        a2 = builtin_cartan("A2")
        assert root_pairing(a2, 0, 0) == 2
        assert root_pairing(a2, 0, 1) == -1
        c2 = builtin_cartan("C2")
        assert root_pairing(c2, 0, 1) == -2

    def test_root_pairing_symmetric(self):
        rng = random.Random(3)
        for c in list(battery_types()) + [random_cartan(rng) for _ in range(5)]:
            for i in range(c.n):
                for j in range(c.n):
                    assert root_pairing(c, i, j) == root_pairing(c, j, i)


class TestContent:
    def test_counting(self):
        a2 = builtin_cartan("A2")
        assert tuple_content(a2, (0, 1, 0)) == RootElement((2, 1))
        assert tuple_content(a2, ()) == RootElement((0, 0))
        rank1 = validate_cartan([[2]])
        assert tuple_content(rank1, (0, 0)) == RootElement((2,))

    def test_invariant_under_transport(self):
        from klrdim.perms import transport_perms

        a2 = builtin_cartan("A2")
        nu = (0, 1, 0, 1)
        for w in transport_perms(nu, nu):
            assert tuple_content(a2, act_on_tuple(w, nu)) == tuple_content(a2, nu)

    def test_weight_helpers(self):
        w = Weight((1, 0, 2))
        assert w.level == 3
        assert w.is_dominant
        assert not Weight((1, -1)).is_dominant
        assert Weight.fundamental(3, 1) + Weight.fundamental(3, 1) == Weight((0, 2, 0))

    @pytest.mark.parametrize("node", [2, 5, -1])
    def test_fundamental_weight_needs_a_node(self, node):
        # An index that names no node raises; it does not give the zero weight.
        with pytest.raises(OutOfRange, match=r"nodes 0\.\.1"):
            Weight.fundamental(2, node)

    def test_weights_over_different_node_sets_do_not_add(self):
        with pytest.raises(BadShape, match="different node sets"):
            Weight((1,)) + Weight((1, 0))

    def test_root_element_multiplicities_are_non_negative(self):
        with pytest.raises(BadShape, match=">= 0"):
            RootElement((1, -1))

    def test_dominant_weights_enumeration(self):
        ws = list(dominant_weights(2, 3))
        assert len(ws) == 1 + 2 + 3 + 4
        assert len(set(ws)) == len(ws)
