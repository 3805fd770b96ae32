"""Differential property tests for the document-order indexed axis layer.

The indexed implementations in :mod:`repro.axes.functions` (interval queries
and posting-list intersections over :class:`repro.xmlmodel.index.DocumentIndex`)
must be node-for-node identical to the retained pre-index reference
implementations in :mod:`repro.axes.reference` — across all thirteen axes,
for every context node of random documents, including attribute and namespace
context nodes (the Section 4 typing edge cases).  The inverse axes χ⁻¹ of the
set algebra are checked against the definition through the reference χ.

The :class:`NodeSet` merge-based algebra is likewise checked against its
``frozenset`` path.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.axes.functions import (
    axis_nodes,
    axis_set,
    axis_test_set,
    inverse_axis_set,
    proximity_order,
    proximity_sorted,
    step_candidates,
)
from repro.axes.nodetests import ANY_NAME, ANY_NODE, KindTest, NameTest
from repro.axes.reference import reference_axis_nodes, reference_axis_set
from repro.axes.regex import Axis
from repro.workloads.documents import random_document
from repro.xpath.values import NodeSet

ALL_AXES = list(Axis)

#: Node tests covering the posting-list fast paths and the generic fallback.
NODE_TESTS = [
    NameTest("a"),
    NameTest("b"),
    NameTest("nope"),
    ANY_NAME,
    ANY_NODE,
    KindTest("text"),
    KindTest("comment"),
]

documents = st.builds(
    random_document,
    seed=st.integers(min_value=0, max_value=10_000),
    max_depth=st.integers(min_value=1, max_value=4),
    max_children=st.integers(min_value=1, max_value=4),
    with_namespaces=st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(documents, st.sampled_from(ALL_AXES))
def test_indexed_axis_nodes_matches_reference(document, axis):
    """axis_nodes agrees with the structural-walk reference on every context
    node, including attribute and namespace nodes, and preserves order."""
    for node in document.dom:
        assert axis_nodes(node, axis) == reference_axis_nodes(node, axis), (node, axis)


@settings(max_examples=40, deadline=None)
@given(
    documents,
    st.sampled_from(ALL_AXES),
    st.integers(min_value=0, max_value=10_000),
)
def test_indexed_axis_set_matches_reference(document, axis, seed):
    """axis_set agrees with the reference on random subsets of dom (special
    context nodes included)."""
    rng = random.Random(seed)
    sample = [node for node in document.dom if rng.random() < 0.35]
    if not sample:
        sample = [document.root]
    assert axis_set(document, sample, axis) == reference_axis_set(document, sample, axis)


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        random_document,
        seed=st.integers(min_value=0, max_value=10_000),
        max_depth=st.integers(min_value=1, max_value=4),
        max_children=st.integers(min_value=1, max_value=4),
        with_namespaces=st.just(True),
    ),
    st.sampled_from(ALL_AXES),
    st.integers(min_value=0, max_value=10_000),
)
def test_inverse_axis_set_matches_reference(document, axis, seed):
    """χ⁻¹(S) = {x ∈ dom | χ(x) ∩ S ≠ ∅} with the reference χ (Lemma 10.1
    under the typing rule), for operands holding attribute and namespace
    nodes."""
    rng = random.Random(seed)
    sample = {node for node in document.dom if rng.random() < 0.35} or {document.root}
    expected = {
        node for node in document.dom if sample.intersection(reference_axis_nodes(node, axis))
    }
    assert inverse_axis_set(document, sample, axis) == expected


@settings(max_examples=40, deadline=None)
@given(documents, st.sampled_from(ALL_AXES), st.sampled_from(NODE_TESTS))
def test_step_candidates_matches_filtered_reference(document, axis, test):
    """The posting-list fast paths of step_candidates agree with filtering
    the reference axis result through NodeTest.matches."""
    for node in document.dom:
        expected = [
            candidate
            for candidate in reference_axis_nodes(node, axis)
            if test.matches(candidate, axis)
        ]
        assert step_candidates(node, axis, test) == expected, (node, axis, test)


@settings(max_examples=40, deadline=None)
@given(
    documents,
    st.sampled_from(ALL_AXES),
    st.sampled_from(NODE_TESTS),
    st.integers(min_value=0, max_value=10_000),
)
def test_axis_test_set_matches_filtered_reference(document, axis, test, seed):
    rng = random.Random(seed)
    sample = [node for node in document.dom if rng.random() < 0.35]
    if not sample:
        sample = [document.root]
    expected = {
        node
        for node in reference_axis_set(document, sample, axis)
        if test.matches(node, axis)
    }
    assert axis_test_set(document, sample, axis, test) == expected


@settings(max_examples=40, deadline=None)
@given(documents, st.sampled_from(ALL_AXES))
def test_proximity_order_equals_proximity_sorted(document, axis):
    """For document-ordered input (what step_candidates produces), the O(n)
    reversal agrees with the general sort."""
    for node in document.dom:
        candidates = axis_nodes(node, axis)
        assert proximity_order(candidates, axis) == proximity_sorted(candidates, axis)


# ----------------------------------------------------------------------
# NodeSet merge algebra
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    documents,
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
)
def test_node_set_merge_paths_match_set_paths(document, seed_a, seed_b):
    """NodeSet algebra must give identical results whether the operands carry
    the ordered view (merge path) or only the frozenset view."""
    rng_a, rng_b = random.Random(seed_a), random.Random(seed_b)
    sample_a = [node for node in document.dom if rng_a.random() < 0.5]
    sample_b = [node for node in document.dom if rng_b.random() < 0.5]

    plain_a, plain_b = NodeSet(sample_a), NodeSet(sample_b)
    ordered_a = NodeSet.from_sorted(sample_a)
    ordered_b = NodeSet.from_sorted(sample_b)

    for op in ("union", "intersection", "difference"):
        merged = getattr(ordered_a, op)(ordered_b)
        plain = getattr(plain_a, op)(plain_b)
        assert merged == plain
        assert merged.in_document_order() == plain.in_document_order()
        assert hash(merged) == hash(plain)
    assert ordered_a.as_set() == plain_a.as_set()
    assert ordered_a.first() is plain_a.first()
    assert len(ordered_a) == len(plain_a)
    assert list(ordered_a) == list(plain_a)
