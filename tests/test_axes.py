"""Tests for primitive relations, Table I definitions, Algorithm 3.2 and the
direct typed axis functions (paper Section 3 and 4)."""

from __future__ import annotations

import pytest

from repro.axes.algorithm32 import eval_axis
from repro.axes.functions import (
    axis_nodes,
    axis_set,
    inverse_axis_set,
    proximity_sorted,
    step_candidates,
)
from repro.axes.nodetests import ANY_NODE, KindTest, NameTest
from repro.axes.primitives import (
    Primitive,
    firstchild,
    firstchild_inverse,
    nextsibling,
    nextsibling_inverse,
    primitive_pairs,
)
from repro.axes.regex import AXIS_INVERSES, Axis, axis_by_name, inverse_axis, is_reverse_axis
from repro.xmlmodel.parser import parse_xml

UNTYPED_AXES = [
    Axis.SELF,
    Axis.CHILD,
    Axis.PARENT,
    Axis.DESCENDANT,
    Axis.ANCESTOR,
    Axis.DESCENDANT_OR_SELF,
    Axis.ANCESTOR_OR_SELF,
    Axis.FOLLOWING,
    Axis.PRECEDING,
    Axis.FOLLOWING_SIBLING,
    Axis.PRECEDING_SIBLING,
]


@pytest.fixture
def tree():
    return parse_xml("<a><b><d/><e>t</e></b><c><f/></c></a>")


def element(doc, name):
    for node in doc.dom:
        if node.is_element and node.name == name:
            return node
    raise AssertionError(f"no element {name}")


class TestPrimitives:
    def test_firstchild(self, tree):
        a = element(tree, "a")
        assert firstchild(a).name == "b"
        assert firstchild(element(tree, "d")) is None

    def test_nextsibling(self, tree):
        assert nextsibling(element(tree, "b")).name == "c"
        assert nextsibling(element(tree, "c")) is None

    def test_inverses(self, tree):
        b, c = element(tree, "b"), element(tree, "c")
        assert firstchild_inverse(b).name == "a"
        assert firstchild_inverse(c) is None
        assert nextsibling_inverse(c) is b
        assert nextsibling_inverse(b) is None

    def test_primitive_pairs_cover_all_edges(self, tree):
        pairs = primitive_pairs(Primitive.FIRSTCHILD, tree.dom)
        assert all(image.parent is node for node, image in pairs)
        # |firstchild relation| equals the number of non-leaf nodes.
        non_leaves = sum(1 for node in tree.dom if node.child0_sequence())
        assert len(pairs) == non_leaves


class TestAxisRegexEvaluator:
    """Algorithm 3.2 against hand-computed expectations."""

    def test_child_axis(self, tree):
        a = element(tree, "a")
        assert {n.name for n in eval_axis({a}, Axis.CHILD)} == {"b", "c"}

    def test_descendant_axis(self, tree):
        a = element(tree, "a")
        names = {n.name for n in eval_axis({a}, Axis.DESCENDANT) if n.is_element}
        assert names == {"b", "c", "d", "e", "f"}

    def test_ancestor_axis(self, tree):
        d = element(tree, "d")
        result = eval_axis({d}, Axis.ANCESTOR)
        assert {n.name for n in result if n.is_element} == {"a", "b"}
        assert tree.root in result

    def test_following_axis(self, tree):
        d = element(tree, "d")
        names = {n.name for n in eval_axis({d}, Axis.FOLLOWING) if n.is_element}
        assert names == {"e", "c", "f"}

    def test_preceding_axis(self, tree):
        f = element(tree, "f")
        names = {n.name for n in eval_axis({f}, Axis.PRECEDING) if n.is_element}
        assert names == {"b", "d", "e"}

    def test_sibling_axes(self, tree):
        b = element(tree, "b")
        assert {n.name for n in eval_axis({b}, Axis.FOLLOWING_SIBLING)} == {"c"}
        assert eval_axis({b}, Axis.PRECEDING_SIBLING) == set()

    def test_self_axis(self, tree):
        b = element(tree, "b")
        assert eval_axis({b}, Axis.SELF) == {b}

    def test_applies_to_sets(self, tree):
        b, c = element(tree, "b"), element(tree, "c")
        result = eval_axis({b, c}, Axis.CHILD)
        assert {n.name for n in result if n.is_element} == {"d", "e", "f"}

    @pytest.mark.parametrize("axis", UNTYPED_AXES)
    def test_agreement_with_direct_functions(self, tree, axis):
        """Algorithm 3.2 (untyped) agrees with the typed direct functions on
        element context nodes (no attribute/namespace nodes in this tree)."""
        for node in tree.dom:
            if node.node_type.value not in ("element", "root"):
                continue
            regex_result = {
                n for n in eval_axis({node}, axis) if not n.is_special_child
            }
            direct_result = set(axis_nodes(node, axis))
            assert regex_result == direct_result, (node, axis)


class TestAxisInverses:
    @pytest.mark.parametrize("axis", UNTYPED_AXES)
    def test_lemma_10_1(self, tree, axis):
        """x χ y iff y χ⁻¹ x, for every pair of (non-special) nodes."""
        inverse = inverse_axis(axis)
        nodes = [n for n in tree.dom if not n.is_special_child]
        for x in nodes:
            forward = set(axis_nodes(x, axis))
            for y in nodes:
                assert (y in forward) == (x in set(axis_nodes(y, inverse)))

    def test_inverse_table_is_involutive(self):
        for axis, inverse in AXIS_INVERSES.items():
            if axis in (Axis.ATTRIBUTE, Axis.NAMESPACE):
                continue
            assert AXIS_INVERSES[inverse] is axis

    def test_axis_by_name(self):
        assert axis_by_name("following-sibling") is Axis.FOLLOWING_SIBLING
        with pytest.raises(KeyError):
            axis_by_name("sideways")

    def test_reverse_axes(self):
        assert is_reverse_axis(Axis.ANCESTOR)
        assert is_reverse_axis(Axis.PRECEDING_SIBLING)
        assert not is_reverse_axis(Axis.DESCENDANT)


class TestTypedAxes:
    def test_attribute_axis(self):
        doc = parse_xml('<a x="1" y="2"><b z="3"/></a>')
        a = doc.document_element
        assert {n.name for n in axis_nodes(a, Axis.ATTRIBUTE)} == {"x", "y"}
        assert axis_nodes(a.children[0], Axis.ATTRIBUTE)[0].name == "z"

    def test_attributes_excluded_from_child_and_descendant(self):
        doc = parse_xml('<a x="1"><b y="2"/></a>')
        a = doc.document_element
        assert all(not n.is_attribute for n in axis_nodes(a, Axis.CHILD))
        assert all(not n.is_attribute for n in axis_nodes(a, Axis.DESCENDANT))

    def test_parent_of_attribute_is_element(self):
        doc = parse_xml('<a x="1"/>')
        attr = doc.document_element.attribute("x")
        assert axis_nodes(attr, Axis.PARENT) == [doc.document_element]

    def test_namespace_axis(self):
        doc = parse_xml('<a xmlns:p="urn:p"/>')
        a = doc.document_element
        assert [n.name for n in axis_nodes(a, Axis.NAMESPACE)] == ["p"]

    def test_proximity_sorted_reverse_axis(self, tree):
        f = element(tree, "f")
        preceding = axis_nodes(f, Axis.PRECEDING)
        ordered = proximity_sorted(preceding, Axis.PRECEDING)
        # Reverse document order: the nearest preceding node comes first.
        assert ordered[0].order > ordered[-1].order

    def test_step_candidates_name_filter(self, tree):
        a = element(tree, "a")
        assert [n.name for n in step_candidates(a, Axis.CHILD, NameTest("b"))] == ["b"]
        assert [n.name for n in step_candidates(a, Axis.CHILD, NameTest(None))] == ["b", "c"]

    def test_step_candidates_kind_filter(self, tree):
        e = element(tree, "e")
        texts = step_candidates(e, Axis.CHILD, KindTest("text"))
        assert len(texts) == 1 and texts[0].value == "t"


class TestSetAtATimeAxes:
    @pytest.mark.parametrize("axis", UNTYPED_AXES)
    def test_axis_set_equals_union_of_node_at_a_time(self, tree, axis):
        sources = [n for n in tree.dom if n.is_element][:4]
        expected: set = set()
        for node in sources:
            expected.update(axis_nodes(node, axis))
        assert axis_set(tree, sources, axis) == expected

    def test_axis_set_empty_input(self, tree):
        assert axis_set(tree, [], Axis.DESCENDANT) == set()

    def test_inverse_axis_set(self, tree):
        d = element(tree, "d")
        result = inverse_axis_set(tree, {d}, Axis.CHILD)
        assert {n.name for n in result} == {"b"}

    def test_document_index_subtree_end(self, tree):
        index = tree.index
        a = element(tree, "a")
        assert index.subtree_end[a.order] == max(n.order for n in tree.dom)
        d = element(tree, "d")
        assert index.subtree_end[d.order] == d.order

    def test_document_index_cached(self, tree):
        # The index lives on the document itself, not in a module-level cache.
        assert tree.index is tree.index

    def test_following_set_matches_definition(self, tree):
        d = element(tree, "d")
        assert axis_set(tree, {d}, Axis.FOLLOWING) == set(axis_nodes(d, Axis.FOLLOWING))


class TestNodeTests:
    def test_name_test_matches(self, tree):
        b = element(tree, "b")
        assert NameTest("b").matches(b, Axis.CHILD)
        assert not NameTest("c").matches(b, Axis.CHILD)
        assert NameTest(None).matches(b, Axis.CHILD)

    def test_name_test_respects_principal_node_type(self):
        doc = parse_xml('<a href="x"/>')
        attr = doc.document_element.attribute("href")
        assert NameTest("href").matches(attr, Axis.ATTRIBUTE)
        assert not NameTest("href").matches(attr, Axis.CHILD)

    def test_kind_tests(self, tree):
        text = element(tree, "e").children[0]
        assert KindTest("text").matches(text, Axis.CHILD)
        assert not KindTest("comment").matches(text, Axis.CHILD)
        assert ANY_NODE.matches(text, Axis.CHILD)

    def test_processing_instruction_target(self):
        doc = parse_xml("<a><?one x?><?two y?></a>")
        pis = doc.document_element.children
        assert KindTest("processing-instruction", "one").matches(pis[0], Axis.CHILD)
        assert not KindTest("processing-instruction", "one").matches(pis[1], Axis.CHILD)

    def test_select_uses_indexes(self, tree):
        result = NameTest("b").select(tree, Axis.CHILD)
        assert {n.name for n in result} == {"b"}
        assert ANY_NODE.select(tree, Axis.CHILD) == tree.dom_set
