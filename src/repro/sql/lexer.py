"""Tokenizer for the mini-SQL dialect."""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import SqlSyntaxError

KEYWORDS = {
    "select", "from", "where", "group", "by", "and", "between", "as",
    "join", "on", "case", "when", "then", "else", "end", "like", "not",
    "count", "sum", "avg", "min", "max", "bwdecompose", "within", "of",
}

#: One master pattern, tried at each token start after any whitespace.
#: Numbers are ASCII (``int()`` in the binder must never see ``²``); a
#: word is ``\w+`` and must start with a letter or ``_`` (checked below);
#: multi-char operators come first so "<=" never lexes as "<" then "=";
#: ``bad`` is any other character, or a quote that opens no string.
_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<number>[0-9]+(?:\.[0-9]+)?|\.[0-9]+)"
    r"|(?P<word>\w+)"
    r"|'(?P<string>[^']*)'"
    r"|(?P<op><=|>=|<>|!=|==|[=<>+\-/(),.])"
    r"|(?P<star>\*)"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.)"
    r")",
    re.DOTALL,
)


class Token(NamedTuple):
    kind: str  # 'kw' | 'ident' | 'number' | 'string' | 'op' | 'star' | 'eof'
    text: str
    pos: int


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # ``Token(...)`` without its Python-level ``__new__``
    for m in _TOKEN.finditer(sql):
        kind = m.lastgroup
        text = m.group(kind)
        pos = m.start(kind)
        if kind == "word":
            head = text[0]
            if not (head.isalpha() or head == "_"):
                raise SqlSyntaxError(f"unexpected character {head!r}", pos)
            word = text.lower()
            if word in KEYWORDS:
                append(new(Token, ("kw", word, pos)))
            else:
                append(new(Token, ("ident", text, pos)))
        elif kind == "string":
            append(new(Token, ("string", text, pos - 1)))
        elif kind == "bad":
            if text == "'":
                raise SqlSyntaxError("unterminated string literal", pos)
            raise SqlSyntaxError(f"unexpected character {text!r}", pos)
        else:
            append(new(Token, (kind, text, pos)))
            if kind == "eof":  # after trailing blanks \Z would match twice
                break
    return tokens
