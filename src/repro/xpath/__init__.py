"""XPath 1.0 front end: lexer, parser, AST, normaliser, values, functions.

All engines consume the same normalised AST produced by
:func:`repro.xpath.normalize.compile_query`, and share the value system of
:mod:`repro.xpath.values` and the function library of
:mod:`repro.xpath.functions`; that shared front end is what makes the
engine-vs-engine comparisons of the paper's evaluation meaningful.
"""

from . import ast
from .context import Context, StaticContext, context_domain, document_element_context, root_context
from .functions import FunctionLibrary
from .lexer import Token, TokenType, XPathLexer, tokenize
from .normalize import compile_query, normalize
from .parser import parse_xpath
from .typing import FUNCTION_ARITIES, FUNCTION_RETURN_TYPES, static_type
from .values import (
    NodeSet,
    ValueType,
    XPathValue,
    format_number,
    predicate_truth,
    to_boolean,
    to_number,
    to_string,
    value_type,
)

__all__ = [
    "Context",
    "FUNCTION_ARITIES",
    "FUNCTION_RETURN_TYPES",
    "FunctionLibrary",
    "NodeSet",
    "StaticContext",
    "Token",
    "TokenType",
    "ValueType",
    "XPathLexer",
    "XPathValue",
    "ast",
    "compile_query",
    "context_domain",
    "document_element_context",
    "format_number",
    "normalize",
    "parse_xpath",
    "predicate_truth",
    "root_context",
    "static_type",
    "to_boolean",
    "to_number",
    "to_string",
    "tokenize",
    "value_type",
]
