"""Tests for the tree builder, the serialiser and the id axis (§4, §10.2)."""

from __future__ import annotations

import pytest

from repro import api
from repro.errors import XMLSyntaxError
from repro.xmlmodel import builder as builder_module
from repro.xmlmodel.builder import TreeBuilder, build_document, build_fragment
from repro.xmlmodel.ids import deref_ids
from repro.xmlmodel.nodes import Node, NodeType
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import escape_attribute, escape_text, serialize, serialize_node


class TestTreeBuilder:
    def test_simple_build(self):
        builder = TreeBuilder()
        builder.start("a")
        builder.element("b", text="hi")
        builder.end("a")
        doc = builder.finish()
        assert doc.document_element.name == "a"
        assert doc.document_element.children[0].string_value() == "hi"

    def test_mismatched_end_tag_rejected(self):
        builder = TreeBuilder()
        builder.start("a")
        with pytest.raises(XMLSyntaxError):
            builder.end("b")

    def test_unclosed_element_rejected_at_finish(self):
        builder = TreeBuilder()
        builder.start("a")
        builder.start("b")
        builder.end("b")
        with pytest.raises(XMLSyntaxError):
            builder.finish()

    def test_end_without_start_rejected(self):
        builder = TreeBuilder()
        with pytest.raises(XMLSyntaxError):
            builder.end("a")

    def test_zero_document_elements_rejected(self):
        builder = TreeBuilder()
        with pytest.raises(XMLSyntaxError):
            builder.finish()

    def test_empty_text_is_ignored(self):
        builder = TreeBuilder()
        builder.start("a")
        assert builder.text("") is None
        builder.end("a")
        assert builder.finish().document_element.children == ()

    def test_adjacent_text_nodes_merge(self):
        builder = TreeBuilder()
        builder.start("a")
        builder.text("one")
        builder.text("two")
        builder.end("a")
        doc = builder.finish()
        assert len(doc.document_element.children) == 1
        assert doc.document_element.string_value() == "onetwo"

    def test_builder_single_use(self):
        builder = TreeBuilder()
        builder.start("a")
        builder.end("a")
        builder.finish()
        with pytest.raises(RuntimeError):
            builder.start("again")

    def test_build_document_helper(self):
        doc = build_document("a", {"id": "1"}, ["text", ("b", {"x": "2"}, ["inner"])])
        assert doc.document_element.attribute_value("id") == "1"
        assert doc.document_element.string_value() == "textinner"

    def test_node_type_constraints(self):
        text = Node(NodeType.TEXT, value="x")
        with pytest.raises(ValueError):
            text.append_child(Node(NodeType.TEXT, value="y"))
        with pytest.raises(ValueError):
            Node(NodeType.TEXT, name="named", value="x")

    def test_attributes_are_attached_without_a_duplicate_scan(self, monkeypatch):
        # Attribute names are unique, so k attributes cost O(k): no lookup
        # of each new name among the attributes attached before it.
        lookups = []
        attribute = Node.attribute

        def counted(node, name):
            lookups.append(name)
            return attribute(node, name)

        monkeypatch.setattr(Node, "attribute", counted)
        attributes = {f"a{i}": str(i) for i in range(2000)}
        source = "<e " + " ".join(f'{k}="{v}"' for k, v in attributes.items()) + "/>"
        element = parse_xml(source).document_element
        fragment = build_fragment("e", attributes)
        copy = element.detached_copy()
        assert len(lookups) <= 1  # the document's ID map reads id once
        for node in (element, fragment, copy):
            assert [(a.name, a.value, a.parent) for a in node.attributes] == [
                (name, value, node) for name, value in attributes.items()
            ]

    def test_adjacent_string_children_of_a_fragment_merge(self):
        fragment = build_fragment("a", None, ["x", "", "y", ("b",), "z", ""])
        assert [(c.node_type, c.value) for c in fragment.children] == [
            (NodeType.TEXT, "xy"),
            (NodeType.ELEMENT, None),
            (NodeType.TEXT, "z"),
        ]

    def test_merged_text_runs_are_joined_once(self, monkeypatch):
        # Growing a text node's value run by run copies O(N²) characters for
        # N runs; the builder writes a merged node's value twice, its first
        # run and then all runs joined, and a fragment's once.
        writes = []

        class CountingNode(Node):
            __slots__ = ()

            def __setattr__(self, name, value):
                if name == "value" and self.node_type is NodeType.TEXT:
                    writes.append(value)
                super().__setattr__(name, value)

        monkeypatch.setattr(builder_module, "Node", CountingNode)
        runs = 1000
        source = "<a>" + "xxxxxxxxxx<![CDATA[yyyyyyyyyy]]>" * runs + "</a>"
        (text,) = parse_xml(source).document_element.children
        assert text.value == "xxxxxxxxxxyyyyyyyyyy" * runs
        assert len(writes) == 2
        writes.clear()
        (text,) = build_fragment("a", None, ["xy"] * runs).children
        assert text.value == "xy" * runs
        assert len(writes) == 1

    def test_merged_text_is_complete_when_its_element_closes(self):
        builder = TreeBuilder()
        builder.start("a")
        builder.text("x")
        builder.start("b")
        merged = builder.text("y")
        assert builder.text("z") is merged
        builder.end("b")
        assert merged.value == "yz"
        builder.text("w")
        builder.text("v")
        builder.end("a")
        a = builder.finish().document_element
        assert [c.string_value() for c in a.children] == ["x", "yz", "wv"]


class TestSerializer:
    def test_escape_text(self):
        assert escape_text("a < b & c > d") == "a &lt; b &amp; c &gt; d"

    def test_escape_attribute(self):
        assert escape_attribute('say "hi" & bye') == "say &quot;hi&quot; &amp; bye"

    def test_roundtrip_compact(self):
        source = '<a id="1"><b>x &amp; y</b><c/><!--note--><?pi data?></a>'
        doc = parse_xml(source)
        text = serialize(doc)
        reparsed = parse_xml(text)
        assert len(reparsed) == len(doc)
        assert reparsed.document_element.string_value() == doc.document_element.string_value()

    def test_declaration_option(self):
        doc = parse_xml("<a/>")
        assert serialize(doc, declaration=True).startswith("<?xml")

    def test_indentation(self):
        doc = parse_xml("<a><b><c/></b></a>")
        pretty = serialize(doc, indent=2)
        assert "\n  <b>" in pretty

    def test_serialize_single_node(self):
        doc = parse_xml("<a><b>x</b></a>")
        b = doc.document_element.children[0]
        assert serialize_node(b) == "<b>x</b>"

    def test_namespace_serialisation(self):
        doc = parse_xml('<a xmlns:p="urn:x"><p:b/></a>')
        assert 'xmlns:p="urn:x"' in serialize(doc)


#: (document fixture, query, the IDs of the answer) for the id axis.
ID_AXIS_CASES = [
    # n2's string value " 1 " names n1.
    ("idref_doc", "id(//*[@id='2'])", {"1"}),
    # n1's string value covers the text of n2 and n3, naming 1, 2 and 3.
    ("idref_doc", "id(//*[@id='1'])", {"1", "2", "3"}),
    # id⁻¹: n1 (through its descendants' text), n2 and n3 name n1.
    ("idref_doc", "//*[id(.)/@id = '1']", {"1", "2", "3"}),
    # In Figure 8 the c/d text happens to mention other ids (11..24).
    ("figure8", "id(//*[@id='22'])", {"11", "12"}),
]


class TestIdAxis:
    # Every engine but corexpath, whose fragment has no id().
    @pytest.mark.parametrize("engine", [e for e in api.engine_names() if e != "corexpath"])
    @pytest.mark.parametrize("fixture, query, ids", ID_AXIS_CASES)
    def test_id_axis_on_every_engine(self, request, engine, fixture, query, ids):
        document = request.getfixturevalue(fixture)
        nodes = api.select(query, document, engine=engine)
        assert {node.attribute_value("id") for node in nodes} == ids

    def test_deref_ids_function(self, figure8):
        nodes = deref_ids(figure8, "12 13")
        assert [node.attribute_value("id") for node in nodes] == ["12", "13"]
