"""Hand-written SQL tokenizer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import SQLSyntaxError

#: TRUE and FALSE are reserved with no grammar rule: either is a syntax
#: error, never a column name.
KEYWORDS = frozenset("""
    SELECT FROM WHERE AND IN NULL ORDER BY ASC DESC INSERT INTO VALUES UPDATE
    SET DELETE CREATE DROP TABLE INDEX UNIQUE ON EXCEPT FOR COUNT LIMIT
    SHARE TRUE FALSE EXCLUDE KEYS
""".split())

TYPES = frozenset({"INT", "INTEGER", "FLOAT", "REAL", "TEXT", "VARCHAR",
                   "BOOL", "BOOLEAN", "BIGINT"})

#: Multi-char operators first so `<=` never lexes as `<`, `=`.
OPERATORS = ("<>", "!=", "<=", ">=", "=", "<", ">", "(", ")", ",", "*",
             "?", "+", "-")


@dataclass(frozen=True)
class Token:
    kind: str  # KEYWORD | TYPE | IDENT | NUMBER | STRING | OP | EOF
    value: object
    pos: int

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Token({self.kind},{self.value!r})"


def tokenize(sql: str) -> list[Token]:
    tokens = list(_scan(sql))
    tokens.append(Token("EOF", None, len(sql)))
    return tokens


def _scan(sql: str) -> Iterator[Token]:
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            newline = sql.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if ch == "'":
            end = i + 1
            parts = []
            while True:
                if end >= n:
                    raise SQLSyntaxError(f"unterminated string at {i}")
                if sql[end] == "'":
                    if end + 1 < n and sql[end + 1] == "'":  # escaped quote
                        parts.append(sql[i + 1:end + 1])
                        i = end + 1
                        end = i + 1
                        continue
                    break
                end += 1
            parts.append(sql[i + 1:end])
            yield Token("STRING", "".join(parts), i)
            i = end + 1
            continue
        if ch.isdigit():
            end = i
            is_float = False
            while end < n and (sql[end].isdigit() or sql[end] == "."):
                if sql[end] == ".":
                    if is_float:
                        break
                    is_float = True
                end += 1
            text = sql[i:end]
            yield Token("NUMBER", float(text) if is_float else int(text), i)
            i = end
            continue
        if ch.isalpha() or ch == "_":
            end = i
            while end < n and (sql[end].isalnum() or sql[end] == "_"):
                end += 1
            word = sql[i:end]
            upper = word.upper()
            if upper in TYPES:
                yield Token("TYPE", upper, i)
            elif upper in KEYWORDS:
                yield Token("KEYWORD", upper, i)
            else:
                yield Token("IDENT", word, i)
            i = end
            continue
        for op in OPERATORS:
            if sql.startswith(op, i):
                yield Token("OP", op, i)
                i += len(op)
                break
        else:
            raise SQLSyntaxError(f"unexpected character {ch!r} at {i}")
