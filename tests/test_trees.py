import json

from hypothesis import given, strategies as st

from baxt.trees import (Node, insert_left_strict, insert_right_strict,
                        p_baxt, p_sylv, p_sylv_sharp, to_dot, to_json_obj,
                        tree_equal)
from baxt.words import AWord, parse_aword
from definitions import (from_json_obj, is_left_strict, is_right_strict,
                         labels, to_json)


def leaf(a):
    return Node(a)


awords = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(1, n), max_size=10).map(
        lambda syms: AWord(tuple(syms), n)))


def test_insert_right_strict_base_cases():
    assert insert_right_strict(None, 5) == leaf(5)
    assert insert_right_strict(leaf(5), 6) == Node(5, None, leaf(6))
    # equal labels go left
    assert insert_right_strict(leaf(5), 5) == Node(5, leaf(5), None)


def test_insert_left_strict_base_cases():
    assert insert_left_strict(None, 3) == leaf(3)
    # equal labels go right
    assert insert_left_strict(leaf(3), 3) == Node(3, None, leaf(3))
    assert insert_left_strict(leaf(3), 1) == Node(3, leaf(1), None)


# the running example word and its two insertion trees, worked out by hand
# by replaying the algorithms letter by letter
W = parse_aword("36131512665", 6)

SYLV = Node(5,
            Node(2,
                 Node(1, Node(1, Node(1), None), None),
                 Node(5, Node(3, Node(3), None), None)),
            Node(6, Node(6, Node(6), None), None))

SYLV_SHARP = Node(3,
                  Node(1, None, Node(1, None, Node(1, None, Node(2)))),
                  Node(6,
                       Node(3, None, Node(5, None, Node(5))),
                       Node(6, None, Node(6))))


def test_running_example_trees():
    assert tree_equal(p_sylv(W), SYLV)
    assert tree_equal(p_sylv_sharp(W), SYLV_SHARP)
    assert p_sylv(W).label == 5
    assert p_sylv_sharp(W).label == 3


def test_p_baxt_pairs_the_trees():
    pair = p_baxt(W)
    assert tree_equal(pair.left, SYLV_SHARP)
    assert tree_equal(pair.right, SYLV)
    assert p_baxt(AWord((), 3)) == (None, None)


def test_congruent_words_share_trees():
    a = p_baxt(parse_aword("2121", 2))
    b = p_baxt(parse_aword("2211", 2))
    assert tree_equal(a.right, b.right)
    assert tree_equal(a.left, b.left)


def test_tree_equal_trivia():
    assert not tree_equal(leaf(1), leaf(2))
    assert tree_equal(None, None)
    assert not tree_equal(None, leaf(1))


@given(awords)
def test_insertion_invariants(w):
    right = p_sylv(w)
    left = p_sylv_sharp(w)
    assert is_right_strict(right)
    assert is_left_strict(left)
    assert sorted(labels(right)) == sorted(w.symbols)
    assert sorted(labels(left)) == sorted(w.symbols)


def test_validators_reject_broken_trees():
    assert not is_right_strict(Node(5, None, leaf(5)))  # equal label on the right
    assert not is_left_strict(Node(3, leaf(3), None))   # equal label on the left


def test_to_dot_deterministic():
    t = p_sylv(parse_aword("2121", 2))
    out = to_dot(t)
    assert out == to_dot(t)
    assert out.startswith("digraph bst {")
    assert '[label="2"]' in out and '[label="L"]' in out
    assert to_dot(None) == "digraph bst {\n}\n"


def test_json_roundtrip():
    t = p_sylv(W)
    assert from_json_obj(json.loads(to_json(t))) == t
    assert to_json_obj(None) is None
    obj = to_json_obj(leaf(4))
    assert obj == {"label": 4, "left": None, "right": None}
