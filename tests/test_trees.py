import json

from hypothesis import given, settings, strategies as st

import reference_routes as ref
from baxt.trees import (BST, p_baxt, p_sylv, p_sylv_sharp, to_dot, to_json,
                        to_text, tree_equal)
from baxt.words import AWord, parse_aword
from definitions import (from_json_obj, in_order, is_left_strict,
                         is_right_strict, labels, to_json as nested_json,
                         to_json_obj)
from reference_routes import Node, from_nested, to_nested

EMPTY = BST((), (), (), -1)


def leaf(a):
    return Node(a)


def word(*symbols):
    return AWord(symbols, max(symbols, default=1))


awords = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(1, n), max_size=10).map(
        lambda syms: AWord(tuple(syms), n)))


def test_insert_right_strict_base_cases():
    # p_sylv reads right to left: "65" inserts 5, then 6
    assert p_sylv(word(5)) == from_nested(leaf(5))
    assert p_sylv(word(6, 5)) == from_nested(Node(5, None, leaf(6)))
    # equal labels go left
    assert p_sylv(word(5, 5)) == from_nested(Node(5, leaf(5), None))
    assert ref.insert_right_strict(None, 5) == leaf(5)
    assert ref.insert_right_strict(leaf(5), 6) == Node(5, None, leaf(6))
    assert ref.insert_right_strict(leaf(5), 5) == Node(5, leaf(5), None)


def test_insert_left_strict_base_cases():
    # p_sylv_sharp reads left to right: "31" inserts 3, then 1
    assert p_sylv_sharp(word(3)) == from_nested(leaf(3))
    # equal labels go right
    assert p_sylv_sharp(word(3, 3)) == from_nested(Node(3, None, leaf(3)))
    assert p_sylv_sharp(word(3, 1)) == from_nested(Node(3, leaf(1), None))
    assert ref.insert_left_strict(None, 3) == leaf(3)
    assert ref.insert_left_strict(leaf(3), 3) == Node(3, None, leaf(3))
    assert ref.insert_left_strict(leaf(3), 1) == Node(3, leaf(1), None)


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
    right, left = p_sylv(W), p_sylv_sharp(W)
    assert tree_equal(right, from_nested(SYLV))
    assert tree_equal(left, from_nested(SYLV_SHARP))
    assert to_nested(right) == SYLV and to_nested(left) == SYLV_SHARP
    assert right.labels[right.root] == 5
    assert left.labels[left.root] == 3


def test_p_baxt_pairs_the_trees():
    pair = p_baxt(W)
    assert tree_equal(pair.left, from_nested(SYLV_SHARP))
    assert tree_equal(pair.right, from_nested(SYLV))
    assert p_baxt(AWord((), 3)) == (EMPTY, EMPTY)
    assert from_nested(None) == EMPTY and to_nested(EMPTY) is None


def test_congruent_words_share_trees():
    a = p_baxt(parse_aword("2121", 2))
    b = p_baxt(parse_aword("2211", 2))
    assert tree_equal(a.right, b.right)
    assert tree_equal(a.left, b.left)


def test_tree_equal_trivia():
    assert not tree_equal(p_sylv(word(1)), p_sylv(word(2)))
    assert tree_equal(EMPTY, EMPTY)
    assert not tree_equal(EMPTY, p_sylv(word(1)))


@given(awords)
def test_insertion_invariants(w):
    right = p_sylv(w)
    left = p_sylv_sharp(w)
    assert is_right_strict(right)
    assert is_left_strict(left)
    assert sorted(labels(right)) == sorted(w.symbols)
    assert sorted(labels(left)) == sorted(w.symbols)
    # the child links visit every position once, in in-order
    assert in_order(right) == in_order(left) == list(range(len(w)))


def test_validators_reject_broken_trees():
    # equal label on the right
    assert not is_right_strict(from_nested(Node(5, None, leaf(5))))
    # equal label on the left
    assert not is_left_strict(from_nested(Node(3, leaf(3), None)))


def test_to_dot_deterministic():
    t = p_sylv(parse_aword("2121", 2))
    out = to_dot(t)
    assert out == to_dot(t)
    assert out.startswith("digraph bst {")
    assert '[label="2"]' in out and '[label="L"]' in out
    assert to_dot(EMPTY) == "digraph bst {\n}\n"


def test_json_roundtrip():
    t = p_sylv(W)
    assert from_json_obj(json.loads(to_json(t))) == t
    assert to_json(EMPTY) == "null" and to_text(EMPTY) == "None"
    obj = json.loads(to_json(from_nested(leaf(4))))
    assert obj == {"label": 4, "left": None, "right": None}


@settings(max_examples=300)
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(1, n), max_size=40).map(
        lambda syms: AWord(tuple(syms), n))))
def test_flat_trees_match_the_nested_reference(w):
    for flat, nested in ((p_sylv(w), ref.p_sylv(w)),
                         (p_sylv_sharp(w), ref.p_sylv_sharp(w))):
        assert flat == from_nested(nested)
        assert to_nested(flat) == nested
        assert to_json(flat) == nested_json(flat)
        assert to_text(flat) == repr(to_json_obj(flat))
        assert to_dot(flat, "t") == ref.to_dot(nested, "t")
    assert p_baxt(w) == (p_sylv_sharp(w), p_sylv(w))
