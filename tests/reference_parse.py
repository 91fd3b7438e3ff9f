"""Frozen reference copy of the grammar-text parser's character-loop
tokenizer and token-object parser.

`test_parse.py` holds `psdg.parse.parse_text` to this copy: on any text
both must return equal raw declarations, positions included, or the same
diagnostic list.  Do not edit it to follow the package; it is the
behaviour the package parser must keep.
"""
from __future__ import annotations

from psdg.errors import Diagnostic
from psdg.grammar import (RawCptRow, RawFeature, RawGrammar, RawProduction,
                          RawRule)

_PUNCT = set("{};:,|&*")
_WORD_EXTRA = set("_.+-")


class _ParseFailure(Exception):
    def __init__(self, message: str, line: int, column: int):
        self.diagnostic = Diagnostic("ParseError", message, line, column)
        super().__init__(message)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind        # "word", "arrow", or the punct char itself
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(_Token("arrow", "->", line, col))
            i += 2
            col += 2
            continue
        if c in _PUNCT:
            tokens.append(_Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if c.isalnum() or c in _WORD_EXTRA:
            start, start_col = i, col
            while i < n:
                ch = text[i]
                if ch == "-" and i + 1 < n and text[i + 1] == ">":
                    break
                if not (ch.isalnum() or ch in _WORD_EXTRA):
                    break
                i += 1
                col += 1
            tokens.append(_Token("word", text[start:i], line, start_col))
            continue
        raise _ParseFailure(f"unexpected character {c!r}", line, col)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def _here(self) -> tuple[int, int]:
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            return t.line, t.column
        if self.tokens:
            t = self.tokens[-1]
            return t.line, t.column + len(t.text)
        return 1, 1

    def fail(self, message: str):
        line, col = self._here()
        raise _ParseFailure(message, line, col)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, kind: str | None = None, what: str = "") -> _Token:
        t = self.peek()
        if t is None:
            self.fail(f"unexpected end of file{', expected ' + what if what else ''}")
        if kind is not None and t.kind != kind:
            self.fail(f"expected {what or kind}, found {t.text!r}")
        self.pos += 1
        return t

    def accept(self, kind: str) -> _Token | None:
        t = self.peek()
        if t is not None and t.kind == kind:
            self.pos += 1
            return t
        return None

    def word(self, what: str) -> _Token:
        return self.next("word", what)

    def number(self, what: str = "a number", kind=float):
        """The next word read by `kind` (float or int).  Python's readers
        also take `_` separators and non-ASCII digits, and int() a leading
        `+`; the format does not."""
        t = self.word(what)
        try:
            if "_" in t.text or not t.text.isascii() or \
                    kind is int and t.text.startswith("+"):
                raise ValueError
            return kind(t.text)
        except ValueError:
            raise _ParseFailure(f"expected {what}, found {t.text!r}",
                                t.line, t.column) from None

    def word_list(self) -> list[str]:
        out = [self.word("a name").text]
        while self.accept(","):
            out.append(self.word("a name").text)
        return out

    def number_list(self) -> list[float]:
        out = [self.number()]
        while self.accept(","):
            out.append(self.number())
        return out


def _parse_feature(p: _Parser) -> RawFeature:
    head = p.word("a feature name")
    feat = RawFeature(head.text, [], [], line=head.line, column=head.column)
    p.next("{", "'{'")
    while not p.accept("}"):
        key = p.word("a feature clause")
        p.next(":", "':'")
        if key.text == "values":
            feat.values = p.word_list()
        elif key.text == "prior":
            feat.prior = p.number_list()
        elif key.text == "parents":
            feat.parents = p.word_list()
        elif key.text == "cpt":
            feat.cpt = feat.cpt if feat.cpt is not None else []
            feat.cpt.append(_parse_cpt_row(p, key))
        else:
            raise _ParseFailure(f"unknown feature clause {key.text!r}",
                                key.line, key.column)
        if not p.accept(";") and (p.peek() is None or p.peek().kind != "}"):
            p.fail("expected ';' or '}'")
    if not feat.values:
        raise _ParseFailure(f"feature {feat.name!r} has no values clause",
                            head.line, head.column)
    if not feat.prior:
        raise _ParseFailure(f"feature {feat.name!r} has no prior clause",
                            head.line, head.column)
    return feat


def _parse_cpt_row(p: _Parser, key: _Token) -> RawCptRow:
    # Either "v1, v2 | terminal -> probs" or "terminal -> probs" (no parents).
    def name_or_star(what: str) -> str:
        t = p.peek()
        if t is not None and t.kind in ("word", "*"):
            return p.next().text
        p.fail(f"expected {what}")

    names = [name_or_star("a parent value, '*', or a terminal")]
    while p.accept(","):
        names.append(name_or_star("a parent value or '*' after ','"))
    t = p.peek()
    if t is not None and t.kind == "|":
        p.next()
        terminal = name_or_star("a terminal or '*' after '|'")
        p.next("arrow", "'->'")
        return RawCptRow(names, terminal, p.number_list(),
                         line=key.line, column=key.column)
    if t is not None and t.kind == "arrow":
        p.next()
        if len(names) != 1:
            raise _ParseFailure(
                "cpt row without '|' must name exactly one terminal",
                key.line, key.column)
        return RawCptRow([], names[0], p.number_list(),
                         line=key.line, column=key.column)
    p.fail("expected ',', '|' or '->' in cpt row")


def _parse_production(p: _Parser) -> RawProduction:
    head = p.peek()
    index = p.number("a production index", int)
    p.next(":", "':'")
    lhs = p.word("a left-hand symbol").text
    p.next("arrow", "'->'")
    rhs = []
    while p.peek() is not None and p.peek().kind == "word":
        rhs.append(p.next().text)
    prod = RawProduction(index, lhs, rhs, line=head.line, column=head.column)
    p.next("{", "'{'")
    saw_default = False
    while not p.accept("}"):
        key = p.word("'rule' or 'default'")
        if key.text == "rule":
            prod.rules.append(_parse_rule(p, key))
        elif key.text == "default":
            p.next(":", "':'")
            prod.default = p.number("a probability")
            saw_default = True
        else:
            raise _ParseFailure(f"expected 'rule' or 'default', found {key.text!r}",
                                key.line, key.column)
        if not p.accept(";") and (p.peek() is None or p.peek().kind != "}"):
            p.fail("expected ';' or '}'")
    if not saw_default:
        raise _ParseFailure(f"production {index} has no default clause",
                            head.line, head.column)
    return prod


def _parse_rule(p: _Parser, key: _Token) -> RawRule:
    guard = []
    while True:
        feat = p.word("a feature name").text
        kw = p.word("'in'")
        if kw.text != "in":
            raise _ParseFailure(f"expected 'in', found {kw.text!r}",
                                kw.line, kw.column)
        p.next("{", "'{'")
        vals = [p.word("a value").text]
        while p.accept(","):
            vals.append(p.word("a value").text)
        p.next("}", "'}'")
        guard.append((feat, vals))
        if not p.accept("&"):
            break
    p.next(":", "':'")
    value = p.number("a probability")
    return RawRule(guard, value, line=key.line, column=key.column)


def parse_text(text: str) -> tuple[RawGrammar | None, list[Diagnostic]]:
    """Parse grammar text into raw declarations without validating them."""
    try:
        tokens = _tokenize(text)
        p = _Parser(tokens)
        features: list[RawFeature] = []
        productions: list[RawProduction] = []
        start: str | None = None
        start_line = 0
        while p.peek() is not None:
            head = p.word("'feature', 'start' or 'prod'")
            if head.text == "feature":
                features.append(_parse_feature(p))
            elif head.text == "start":
                if start is not None:
                    raise _ParseFailure("start symbol declared twice",
                                        head.line, head.column)
                t = p.word("a start symbol")
                start, start_line = t.text, t.line
            elif head.text == "prod":
                productions.append(_parse_production(p))
            else:
                raise _ParseFailure(
                    f"expected 'feature', 'start' or 'prod', found {head.text!r}",
                    head.line, head.column)
        if start is None:
            raise _ParseFailure("no start symbol declared", 1, 1)
        return RawGrammar(features, productions, start, start_line), []
    except _ParseFailure as e:
        return None, [e.diagnostic]

