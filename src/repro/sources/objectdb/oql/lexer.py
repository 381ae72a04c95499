"""Tokenizer for the OQL subset."""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from repro.errors import OqlSyntaxError

#: Keywords are case-insensitive, per OQL tradition.
KEYWORDS = frozenset({"select", "distinct", "from", "where", "in", "and", "or",
                      "not", "true", "false"})

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<float>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<punct>[(),.:])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str       # 'kw', 'ident', 'int', 'float', 'string', 'op', 'punct', 'eof'
    value: str
    position: int


def tokenize(text: str) -> Iterator[Token]:
    """Yield tokens, ending with a single ``eof`` token."""
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise OqlSyntaxError(
                f"unexpected character {text[position]!r} at offset {position}"
            )
        position = match.end()
        kind = match.lastgroup
        value = match.group()
        if kind == "ws":
            continue
        if kind == "ident" and value.lower() in KEYWORDS:
            yield Token("kw", value.lower(), match.start())
        else:
            yield Token(kind, value, match.start())
    yield Token("eof", "", len(text))
