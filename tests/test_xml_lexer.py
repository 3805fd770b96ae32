"""Tests for the XML tokenizer (repro.xmlmodel.lexer)."""

from __future__ import annotations

import os
import random

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlmodel.lexer import XMLLexer, XMLTokenType, resolve_references


def tokens_of(text: str):
    return list(XMLLexer(text).tokens())


def kinds_of(text: str):
    return [token.kind for token in tokens_of(text)]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        assert kinds_of("") == [XMLTokenType.EOF]

    def test_simple_element(self):
        kinds = kinds_of("<a>text</a>")
        assert kinds == [
            XMLTokenType.START_TAG,
            XMLTokenType.TEXT,
            XMLTokenType.END_TAG,
            XMLTokenType.EOF,
        ]

    def test_empty_element_tag(self):
        (token, _eof) = tokens_of("<a/>")
        assert token.kind is XMLTokenType.EMPTY_TAG
        assert token.name == "a"

    def test_start_tag_name(self):
        token = tokens_of("<item>")[0]
        assert token.name == "item"

    def test_end_tag_name(self):
        token = tokens_of("</item>")[0]
        assert token.kind is XMLTokenType.END_TAG
        assert token.name == "item"

    def test_whitespace_inside_tag_is_tolerated(self):
        token = tokens_of("<a   id='1'   >")[0]
        assert token.attributes == [("id", "1")]

    def test_text_token_content(self):
        token = tokens_of("<a>hello world</a>")[1]
        assert token.data == "hello world"


class TestAttributes:
    def test_double_quoted_attribute(self):
        token = tokens_of('<a href="x.html">')[0]
        assert token.attributes == [("href", "x.html")]

    def test_single_quoted_attribute(self):
        token = tokens_of("<a href='x.html'>")[0]
        assert token.attributes == [("href", "x.html")]

    def test_multiple_attributes_preserve_order(self):
        token = tokens_of('<a x="1" y="2" z="3">')[0]
        assert [name for name, _ in token.attributes] == ["x", "y", "z"]

    def test_attribute_entity_references_resolved(self):
        token = tokens_of('<a title="a &amp; b">')[0]
        assert token.attributes == [("title", "a & b")]

    def test_unquoted_attribute_rejected(self):
        with pytest.raises(XMLSyntaxError):
            tokens_of("<a x=1>")

    def test_unterminated_attribute_rejected(self):
        with pytest.raises(XMLSyntaxError):
            tokens_of('<a x="1>')


class TestSpecialConstructs:
    def test_comment(self):
        token = tokens_of("<!-- hi there -->")[0]
        assert token.kind is XMLTokenType.COMMENT
        assert token.data == " hi there "

    def test_unterminated_comment_rejected(self):
        with pytest.raises(XMLSyntaxError):
            tokens_of("<!-- oops")

    def test_cdata_section(self):
        token = tokens_of("<![CDATA[<raw> & text]]>")[0]
        assert token.kind is XMLTokenType.CDATA
        assert token.data == "<raw> & text"

    def test_processing_instruction(self):
        token = tokens_of("<?php echo 1; ?>")[0]
        assert token.kind is XMLTokenType.PROCESSING_INSTRUCTION
        assert token.name == "php"
        assert token.data == "echo 1;"

    def test_xml_declaration_classified_separately(self):
        token = tokens_of('<?xml version="1.0"?>')[0]
        assert token.kind is XMLTokenType.DECLARATION

    def test_doctype_is_skipped_as_single_token(self):
        kinds = kinds_of("<!DOCTYPE html><a/>")
        assert kinds[0] is XMLTokenType.DOCTYPE
        assert kinds[1] is XMLTokenType.EMPTY_TAG


class TestEntityResolution:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("a &amp; b", "a & b"),
            ("&lt;tag&gt;", "<tag>"),
            ("&quot;q&quot;", '"q"'),
            ("&apos;a&apos;", "'a'"),
            ("&#65;&#66;", "AB"),
            ("&#x41;", "A"),
            ("no entities", "no entities"),
        ],
    )
    def test_references(self, raw, expected):
        assert resolve_references(raw) == expected

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLSyntaxError):
            resolve_references("&bogus;")

    def test_unterminated_entity_rejected(self):
        with pytest.raises(XMLSyntaxError):
            resolve_references("&amp")

    def test_text_entities_resolved_in_stream(self):
        token = tokens_of("<a>x &lt; y</a>")[1]
        assert token.data == "x < y"


class TestCharacterReferenceConformance:
    """ISSUE-7 bugfixes: malformed/out-of-range/illegal character references
    must raise positioned XMLSyntaxError, never a raw ValueError."""

    @pytest.mark.parametrize(
        "raw",
        ["&#xZZ;", "&#;", "&#x;", "&#12a;", "&#+65;", "&#-65;", "&#1_0;", "&#x 41;"],
    )
    def test_malformed_references_raise_xml_syntax_error(self, raw):
        with pytest.raises(XMLSyntaxError, match="malformed character reference"):
            resolve_references(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            "&#x110000;",  # beyond Unicode
            "&#1114112;",
            "&#xFFFFFFFF;",  # far out of range (chr() would raise ValueError)
            "&#0;",
            "&#2;",  # control char outside the Char production
            "&#x1F;",
            "&#xD800;",  # surrogates
            "&#xDFFF;",
            "&#xFFFE;",  # non-characters excluded by the production
            "&#xFFFF;",
        ],
    )
    def test_non_xml_characters_rejected(self, raw):
        with pytest.raises(XMLSyntaxError, match="not a legal XML 1.0 character"):
            resolve_references(raw)

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("&#x9;", "\t"),
            ("&#xA;", "\n"),
            ("&#xD;", "\r"),
            ("&#x20;", " "),
            ("&#xD7FF;", "퟿"),
            ("&#xE000;", ""),
            ("&#xFFFD;", "�"),
            ("&#x10000;", "\U00010000"),
            ("&#x10FFFF;", "\U0010ffff"),
            ("&#x1F600;", "\U0001f600"),
        ],
    )
    def test_boundary_characters_accepted(self, raw, expected):
        assert resolve_references(raw) == expected

    def test_lexer_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            tokens_of("<a>\n  &#xZZ;</a>")
        assert excinfo.value.line == 2

    def test_attribute_value_references_validated(self):
        with pytest.raises(XMLSyntaxError):
            tokens_of('<a x="&#2;">')

    def test_never_escapes_as_value_error(self):
        # The CLI/Collection isolation contract: parse failures stay inside
        # the ReproError hierarchy.
        for raw in ("&#xZZ;", "&#x110000;", "&#2;"):
            try:
                resolve_references(raw)
                assert False, f"{raw} accepted"
            except XMLSyntaxError:
                pass  # ValueError would propagate out of this except clause


def _first_text(tokens):
    return next(t.data for t in tokens if t.kind is XMLTokenType.TEXT)


class TestInternalSubsetEntities:
    """ISSUE-7 bugfix: DOCTYPE internal-subset general entities are
    registered (DBLP corpus shape) instead of lost with the subset."""

    DBLP = (
        "<!DOCTYPE dblp [\n"
        "  <!ELEMENT dblp (article)*>\n"
        '  <!ATTLIST article mdate CDATA #IMPLIED key CDATA "">\n'
        '  <!ENTITY uuml "&#252;">\n'
        '  <!ENTITY Author "M&uuml;ller">\n'
        '  <!ENTITY % param "never-expanded">\n'
        '  <!ENTITY ext SYSTEM "http://example.invalid/x.dtd">\n'
        "  <!NOTATION gif PUBLIC 'gif viewer'>\n"
        "  <?checker run?>\n"
        "  <!-- entities end here -->\n"
        "]>\n"
        "<dblp><article key='&uuml;'>by &Author;</article></dblp>"
    )

    def test_entities_resolved_in_text_and_attributes(self):
        tokens = tokens_of(self.DBLP)
        article = next(t for t in tokens if t.name == "article")
        assert article.attributes == [("key", "ü")]
        text = next(t for t in tokens if t.kind is XMLTokenType.TEXT and "by" in t.data)
        assert text.data == "by Müller"

    def test_parameter_and_external_entities_not_registered(self):
        with pytest.raises(XMLSyntaxError, match="unknown entity"):
            tokens_of("<!DOCTYPE a [<!ENTITY % p 'v'>]><a>&p;</a>")
        with pytest.raises(XMLSyntaxError, match="unknown entity"):
            tokens_of("<!DOCTYPE a [<!ENTITY e SYSTEM 'u'>]><a>&e;</a>")

    def test_first_declaration_wins(self):
        tokens = tokens_of(
            "<!DOCTYPE a [<!ENTITY e 'first'><!ENTITY e 'second'>]><a>&e;</a>"
        )
        assert _first_text(tokens) == "first"

    def test_quoted_gt_inside_declarations_is_tolerated(self):
        tokens = tokens_of(
            "<!DOCTYPE a PUBLIC '-//x//y>z//EN' 'http://e/x.dtd' ["
            "<!ENTITY e 'a > b'>]><a>&e;</a>"
        )
        assert _first_text(tokens) == "a > b"

    def test_recursive_expansion_depth_capped(self):
        with pytest.raises(XMLSyntaxError, match="nested more than"):
            tokens_of("<!DOCTYPE a [<!ENTITY x '&x;'>]><a>&x;</a>")

    def test_billion_laughs_size_capped(self):
        declarations = ["<!ENTITY lol0 'ha'>"]
        for i in range(1, 10):
            tenfold = f"&lol{i - 1};" * 10
            declarations.append(f"<!ENTITY lol{i} \"{tenfold}\">")
        bomb = f"<!DOCTYPE a [{''.join(declarations)}]><a>&lol9;</a>"
        with pytest.raises(XMLSyntaxError, match="entity expansion exceeds"):
            tokens_of(bomb)

    def test_entity_expanding_to_markup_rejected(self):
        with pytest.raises(XMLSyntaxError, match="expands to markup"):
            tokens_of("<!DOCTYPE a [<!ENTITY e '&lt;b/&gt;x<y'>]><a>&e;</a>")

    def test_unterminated_subset_rejected(self):
        with pytest.raises(XMLSyntaxError):
            tokens_of("<!DOCTYPE a [<!ENTITY e 'v'>")
        with pytest.raises(XMLSyntaxError):
            tokens_of("<!DOCTYPE a [<!ENTITY e 'v")

    def test_entities_in_nested_references(self):
        tokens = tokens_of(
            "<!DOCTYPE a [<!ENTITY i '&#105;'><!ENTITY hi 'h&i;'>]><a>&hi;!</a>"
        )
        assert _first_text(tokens) == "hi!"


class TestReferenceFuzz:
    """Seeded fuzz of the character/entity-reference grammar: every
    generated document either round-trips through the parser with the
    expected string value or fails inside the ReproError hierarchy."""

    def test_valid_reference_fuzz_round_trips(self):
        import random

        from repro.xmlmodel.parser import parse_xml

        rng = random.Random(20260807)
        legal_points = (
            [0x9, 0xA, 0x20, 0x41, 0xD7FF, 0xE000, 0xFFFD, 0x10000, 0x10FFFF]
            + [rng.randrange(0x20, 0xD7FF) for _ in range(30)]
            + [rng.randrange(0x10000, 0x10FFFF) for _ in range(10)]
        )
        for code_point in legal_points:
            ref = f"&#{code_point};" if rng.random() < 0.5 else f"&#x{code_point:x};"
            document = parse_xml(f"<a name='p{ref}s'>t{ref}</a>")
            expected = chr(code_point)
            assert document.root.string_value() == f"t{expected}"
            element = document.root.first_child
            assert element.attribute_value("name") == f"p{expected}s"

    def test_invalid_reference_fuzz_rejected_in_hierarchy(self):
        import random

        from repro.errors import ReproError
        from repro.xmlmodel.parser import parse_xml

        rng = random.Random(20260808)
        cases = []
        for _ in range(40):
            roll = rng.random()
            if roll < 0.25:
                cases.append(f"&#{rng.randrange(0x110000, 0x7FFFFFFF)};")
            elif roll < 0.5:
                cases.append(f"&#xD{rng.randrange(0x800, 0xFFF):03X};")  # surrogate
            elif roll < 0.75:
                junk = "".join(rng.choice("zq!#%&*") for _ in range(rng.randint(1, 4)))
                cases.append(f"&#{junk};")
            else:
                name = "".join(rng.choice("abcdef") for _ in range(rng.randint(3, 8)))
                cases.append(f"&{name};")  # undeclared entity
        for reference in cases:
            with pytest.raises(ReproError):
                parse_xml(f"<a>{reference}</a>")


class TestPositions:
    def test_line_and_column_tracking(self):
        text = "<a>\n  <b/>\n</a>"
        b_token = tokens_of(text)[2]
        assert b_token.name == "b"
        assert b_token.line == 2
        assert b_token.column == 3

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            tokens_of("<a x=1>")
        assert excinfo.value.line == 1


class TestDocumentExpansionBudget:
    """Entity expansion is charged to one budget per document, so repeating
    a sub-cap expansion in many text runs or attribute values cannot grow
    the output without limit."""

    @staticmethod
    def _chunked_bomb(chunks: int) -> str:
        # &e4; expands to 90,000 characters and charges 134,440 replacement
        # characters, so five of them stay under MAX_ENTITY_EXPANSION in one
        # text run, and two runs together pass it.
        declarations = "<!ENTITY e0 'xxxxxxxxx'>" + "".join(
            f"<!ENTITY e{i} '{f'&e{i - 1};' * 10}'>" for i in range(1, 5)
        )
        body = "<a>&e4;&e4;&e4;&e4;&e4;</a>" * chunks
        return f"<!DOCTYPE r [{declarations}]><r>{body}</r>"

    def test_one_run_under_the_cap_still_parses(self):
        from repro.xmlmodel.parser import parse_xml

        document = parse_xml(self._chunked_bomb(1))
        assert len(document.root.string_value()) == 5 * 90_000

    def test_repeated_runs_share_the_budget(self):
        from repro.xmlmodel.parser import parse_xml

        with pytest.raises(XMLSyntaxError, match="entity expansion exceeds") as excinfo:
            parse_xml(self._chunked_bomb(12))
        assert excinfo.value.line == 1 and excinfo.value.column > 1

    def test_repeated_runs_share_the_budget_when_streaming(self):
        import repro

        with pytest.raises(XMLSyntaxError, match="entity expansion exceeds"):
            list(repro.stream("//a", self._chunked_bomb(12)))

    def test_repeated_attribute_values_share_the_budget(self):
        bomb = self._chunked_bomb(0).replace(
            "<r></r>", "<r>" + "<a v='&e4;&e4;&e4;&e4;&e4;'/>" * 12 + "</r>"
        )
        with pytest.raises(XMLSyntaxError, match="entity expansion exceeds"):
            tokens_of(bomb)

    def test_large_real_corpus_stays_under_the_budget(self):
        from repro.workloads.documents import doc_dblp_source
        from repro.xmlmodel.parser import parse_xml

        source = doc_dblp_source(10_000)
        assert source.count("&") > 15_000
        document = parse_xml(source)
        assert len(document.root.first_child.children) == 10_000

    def test_standalone_resolution_keeps_its_own_budget(self):
        from repro.xmlmodel.lexer import MAX_ENTITY_EXPANSION

        entities = {"big": "x" * (MAX_ENTITY_EXPANSION // 2 + 1)}
        for _call in range(2):
            assert resolve_references("&big;", entities=entities) == entities["big"]
        with pytest.raises(XMLSyntaxError, match="entity expansion exceeds"):
            resolve_references("&big;&big;", entities=entities)


# ----------------------------------------------------------------------
# Differential test against the character-at-a-time reference lexer
# ----------------------------------------------------------------------
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260731"))
#: Corrupted copies of each base document: 12 bases make 3,132 inputs.
MUTANTS_PER_DOCUMENT = 260
#: Markup-heavy alphabet of the single-character edits.
MUTATION_ALPHABET = "\r\n\t &;\"'<>/!?=#-[]:x1·é"

HAND_WRITTEN = {
    "crlf-tabs-prefixes": (
        '<?xml version="1.0"?>\r\n'
        '<p:root xmlns:p="urn:p"\tp:a·b="1"\r\n  x=\'1\'y=\'2\'>\r\n'
        '\t<p:item·x n = "v" >tabs\tand\r\nlines</p:item·x >\r\n'
        "<_e-1.2\r\n/><q:z\t/></p:root>\r\n"
    ),
    "constructs-and-entities": (
        "<?xml version='1.0' encoding='UTF-8'?>\n"
        "<!DOCTYPE lib PUBLIC '-//x//y>z//EN' \"lib.dtd\" [\n"
        "  <!ELEMENT lib (book)*>\n"
        "  <!ATTLIST book id ID #IMPLIED note CDATA 'a > b'>\n"
        '  <!ENTITY auth "M&#252;ller &amp; Co">\n'
        "  <!ENTITY who '&auth;, Jr.'>\n"
        "  <!ENTITY % pe 'never'>\n"
        "  <!ENTITY ext SYSTEM 'x.ent'>\n"
        "  %pe;\n"
        "  <!-- subset comment -->\n"
        "  <?subset pi?>\n"
        "]>\n"
        "<!-- leading comment -->\n"
        "<lib><?style type='x'?>\n"
        '  <book id="b1" by="&who; &lt;1&gt;">&who; wrote '
        "<![CDATA[<raw> & ]]> &#x41;&#66;&quot;&apos;</book>\n"
        "  <book id='b2' by='&#xe9;'/><!-- c --></lib>\n"
        "<?tail pi?>"
    ),
}


def _reference_documents() -> dict[str, str]:
    from repro.workloads.documents import (
        doc_dblp_source,
        doc_deep_source,
        doc_figure8,
        doc_flat_source,
        doc_flat_text_source,
        doc_idref,
        doc_library,
    )
    from repro.xmlmodel.serializer import serialize

    documents = {
        "dblp": doc_dblp_source(2, seed=FUZZ_SEED),
        "flat": doc_flat_source(12),
        "flat-text": doc_flat_text_source(12),
        "deep": doc_deep_source(12),
        "library": serialize(doc_library(books=3, seed=FUZZ_SEED)),
        "figure8": serialize(doc_figure8()),
        "idref": serialize(doc_idref()),
    }
    documents.update(HAND_WRITTEN)
    documents["crlf-dblp"] = documents["dblp"].replace("\n", "\r\n").replace("><", ">\r\n\t<")
    documents["one-line-entities"] = (
        "<!DOCTYPE a [<!ENTITY e 'é&amp;'>]><a x='&e;'y=\"&#233;\">&e;&lt;&e;</a>"
    )
    documents["text-only"] = "just &amp; text\nno markup"
    return documents


def _mutants(text: str, rng: random.Random, count: int) -> list[str]:
    mutants = []
    for _ in range(count):
        mutant = text
        for _edit in range(rng.randint(1, 2)):
            at = rng.randrange(len(mutant) + 1)
            roll = rng.random()
            if roll < 1 / 3 or not mutant:
                mutant = mutant[:at] + rng.choice(MUTATION_ALPHABET) + mutant[at:]
            elif roll < 2 / 3:
                mutant = mutant[:at] + mutant[at + 1 :]
            else:
                mutant = mutant[:at] + rng.choice(MUTATION_ALPHABET) + mutant[at + 1 :]
        mutants.append(mutant)
    return mutants


def _lex_outcome(lexer_class, text: str) -> tuple[list, tuple | None]:
    """Every token's fields, then the error that ended the stream, if any."""
    tokens = []
    try:
        for token in lexer_class(text).tokens():
            tokens.append(
                (
                    token.kind.value,
                    token.name,
                    token.data,
                    list(token.attributes),
                    token.line,
                    token.column,
                )
            )
    except Exception as error:  # noqa: BLE001 - any divergence is reported
        return tokens, (
            type(error).__name__,
            str(error),
            getattr(error, "line", None),
            getattr(error, "column", None),
        )
    return tokens, None


DIFFERENTIAL_DOCUMENTS = _reference_documents()


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_DOCUMENTS))
def test_lexer_matches_the_reference_lexer(name):
    from _reference_xml_lexer import XMLLexer as ReferenceLexer

    text = DIFFERENTIAL_DOCUMENTS[name]
    assert _lex_outcome(ReferenceLexer, text)[1] is None, "the base lexes without error"
    rng = random.Random(f"{FUZZ_SEED}:{name}")
    for case in [text, *_mutants(text, rng, MUTANTS_PER_DOCUMENT)]:
        expected = _lex_outcome(ReferenceLexer, case)
        assert _lex_outcome(XMLLexer, case) == expected, (
            f"REPRO_FUZZ_SEED={FUZZ_SEED} {name}: lexers differ on {case!r}"
        )


# ----------------------------------------------------------------------
# parse_xml and the streaming scan read the same checked event stream
# ----------------------------------------------------------------------
def _read_outcome(read, text: str) -> tuple[str, list | tuple]:
    """``("ok", nodes)`` or ``("error", (type, message, line, column))``."""
    try:
        return "ok", read(text)
    except Exception as error:  # noqa: BLE001 - any divergence is reported
        return "error", (
            type(error).__name__,
            str(error),
            getattr(error, "line", None),
            getattr(error, "column", None),
        )


def test_parse_and_stream_agree_on_the_lexer_corpus():
    from repro.streaming import stream_select
    from repro.xmlmodel.nodes import NodeType
    from repro.xmlmodel.parser import parse_xml

    unlisted = (NodeType.ROOT, NodeType.NAMESPACE)

    def parsed(text, strip):
        document = parse_xml(text, strip_whitespace=strip)
        return [
            (
                node.order,
                node.node_type,
                node.name,
                None if node.node_type is NodeType.ELEMENT else node.value or "",
            )
            for node in document.dom
            if node.node_type not in unlisted
        ]

    def streamed(text, strip):
        matches = stream_select("//node() | //@*", text, strip_whitespace=strip)
        return [(m.order, m.node_type, m.name, m.value) for m in matches]

    for name, text in sorted(DIFFERENTIAL_DOCUMENTS.items()):
        rng = random.Random(f"{FUZZ_SEED}:{name}")
        for case in [text, *_mutants(text, rng, MUTANTS_PER_DOCUMENT)]:
            for strip in (False, True):
                expected = _read_outcome(lambda t: parsed(t, strip), case)
                assert _read_outcome(lambda t: streamed(t, strip), case) == expected, (
                    f"REPRO_FUZZ_SEED={FUZZ_SEED} {name} strip_whitespace={strip}: "
                    f"parse_xml and streaming differ on {case!r}"
                )
