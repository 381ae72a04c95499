"""The YAT_L integration language (paper, Section 2)."""

from repro.yatl.ast import MatchClause, YatlProgram, YatlQuery, YatlRule
from repro.yatl.parser import parse_filter, parse_program, parse_query
from repro.yatl.translator import translate_query, translate_rule

__all__ = [
    "MatchClause",
    "YatlProgram",
    "YatlQuery",
    "YatlRule",
    "parse_filter",
    "parse_program",
    "parse_query",
    "translate_query",
    "translate_rule",
]
