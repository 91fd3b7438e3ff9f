"""Text format for grammar files.

The format is declaration-oriented; `#` starts a comment that runs to the
end of the line.  Three declaration forms exist:

    feature <name> {
      values: v1, v2, ...;
      prior: p1, p2, ...;
      parents: f1, f2, ...;            # previous-step features; optional
      cpt: pv1, pv2 | <terminal|*> -> p1, p2, ...;   # one row, ordered
    }

    start <Nonterminal>

    prod <index>: <Lhs> -> <sym> <sym> ... {
      rule <feature> in {v1, v2} & <feature> in {v} : p;
      default: p;
    }

A feature without a `parents`/`cpt` section keeps its value from step to
step.  CPT rows are matched first to last; `*` is a wildcard for a parent
value or for the terminal.  Production rule guards are conjunctions and
are likewise matched first to last, falling through to `default`.

Lexical rules: only `\\n` ends a line.  Space, tab and `\\r` separate
tokens; any other character outside a comment must belong to a token.  A
token is `->`, one of `{};:,|&*`, or a word: a run of `[\\w.+-]` (`\\w` is
`str.isalnum()` or `_`) that stops before `->`, so `a->b` is three tokens.

Symbols never appearing as a left-hand side are terminals.  Numbers are
plain ASCII, without `_` digit separators.  All errors carry 1-based line
and column positions; a column counts code points, and a tab counts as 1.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from itertools import compress, count

from .errors import Diagnostic, GrammarError
from .grammar import (Psdg, RawCptRow, RawFeature, RawGrammar, RawProduction,
                      RawRule, validate_grammar)

# A word is `(?:[\w.+]|-(?!>))+` unrolled, which reads long numbers twice as
# fast.  A text reaches _TOKEN only once _BAD finds nothing in it, so every
# character outside [ \t\r] belongs to a token.
_TOKEN = re.compile(
    r"->|[{};:,|&*]|(?:[\w.+]|-(?!>))[\w.+]*(?:-(?!>)[\w.+]*)*")
# A character no token takes: `>` is one only as the end of `->`.
_BAD = re.compile(r"[^\w.+\-{};:,|&*> \t\r]|(?<!-)>")
# The ASCII characters other than `>` that code lines may hold.
_GOOD_ASCII = bytes(c for c in range(128) if chr(c).isalnum()
                    or chr(c) in "_.+-{};:,|&* \t\r\n")
_END = ""                               # stands after the last token
_NOT_WORDS = frozenset("{};:,|&*") | {"->", _END}
_NOT_NAMES = _NOT_WORDS - {"*"}         # cpt rows take `*` for a name


class _ParseFailure(Exception):
    def __init__(self, message: str, line: int, column: int):
        self.diagnostic = Diagnostic("ParseError", message, line, column)
        super().__init__(message)


def _find(tokens: list[str], k: int, test, step: int = 1) -> int:
    """Index of the first of tokens[k], tokens[k + step], ... to pass
    `test`, or one past the end.  (islice would walk from the list's head.)"""
    while k < len(tokens):
        for i in compress(count(), map(test, tokens[k:k + 64 * step:step])):
            return k + step * i
        k += 64 * step
    return k


def _clean(codes: list[str]) -> bool:
    """True if the code lines are ASCII and hold no character that `_BAD`
    finds.  One C-level pass over the whole text: `_BAD` runs a regex
    character class with `\\w` at every position, several times slower."""
    text = "\n".join(codes)
    if not text.isascii():
        return False
    rest = text.encode().translate(None, _GOOD_ASCII)
    return rest.count(b">") == len(rest) == text.count("->")


class _Parser:
    """A cursor over a text's tokens, which are plain strings.  `lines[k]`
    is token k's line; its column is worked out only when asked for."""

    def __init__(self, text: str):
        self.source = text.split("\n")
        self.tokens, self.lines = [], []
        codes = [line.partition("#")[0] for line in self.source]
        if not _clean(codes):
            for n, code in enumerate(codes, 1):
                bad = _BAD.search(code)
                if bad:
                    raise _ParseFailure(
                        f"unexpected character {bad.group()!r}", n,
                        bad.start() + 1)
        for n, code in enumerate(codes, 1):
            found = _TOKEN.findall(code)
            self.tokens += found
            self.lines += [n] * len(found)
        # _END sits just past the last token: "" is found where that ends.
        self.tokens.append(_END)
        self.lines.append(self.lines[-1] if self.lines else 1)
        self.pos = 0
        self._starts: dict[int, list[int]] = {}

    def at(self, k: int) -> tuple[int, int]:
        """1-based (line, column) of token k."""
        n = self.lines[k]
        first = bisect_left(self.lines, n)
        starts = self._starts.setdefault(n, [])
        while len(starts) <= k - first:
            # Only blanks lie between two tokens, so the next occurrence
            # of a token after the one before it is the token itself.
            j = first + len(starts)
            after = starts[-1] + len(self.tokens[j - 1]) if starts else 0
            starts.append(self.source[n - 1].index(self.tokens[j], after))
        return n, starts[k - first] + 1

    def fail(self, message: str, k: int | None = None):
        raise _ParseFailure(message, *self.at(self.pos if k is None else k))

    def expected(self, what: str):
        t = self.tokens[self.pos]
        self.fail(f"expected {what}, found {t!r}" if t else
                  f"unexpected end of file, expected {what}")

    def expect(self, mark: str) -> None:
        if self.tokens[self.pos] != mark:
            self.expected(f"'{mark}'")
        self.pos += 1

    def word(self, what: str) -> str:
        t = self.tokens[self.pos]
        if t in _NOT_WORDS:
            self.expected(what)
        self.pos += 1
        return t

    def number(self, what: str = "a number", kind=float):
        """The next word read by `kind` (float or int).  Python's readers
        also take `_` separators and non-ASCII digits, and int() a leading
        `+`; the format does not."""
        k = self.pos
        t = self.word(what)
        if "_" not in t and t.isascii() and not (kind is int and t[0] == "+"):
            try:
                return kind(t)
            except ValueError:
                pass
        self.fail(f"expected {what}, found {t!r}", k)

    def items(self) -> list[str]:
        """The items of the `,`-separated list at the cursor, unchecked;
        the cursor moves to the token after the list."""
        start = self.pos
        self.pos = _find(self.tokens, start + 1, ",".__ne__, 2)
        return self.tokens[start:self.pos:2]

    def word_list(self, what: str = "a name") -> list[str]:
        start = self.pos
        out = self.items()
        bad = _find(out, 0, _NOT_WORDS.__contains__)
        if bad < len(out):
            self.pos = start + 2 * bad
            self.expected(what)
        return out

    def number_list(self) -> list[float]:
        """Reads a well-formed list in one step, and hands any other to
        `number`, the one source of number diagnostics: such a list holds
        an item that `number` refuses, so one of the calls raises."""
        start = self.pos
        out = self.items()
        joined = "".join(out)
        if "_" not in joined and joined.isascii():
            try:
                return list(map(float, out))
            except ValueError:
                pass
        self.pos = start
        self.number()
        while self.tokens[self.pos] == ",":
            self.pos += 1
            self.number()

    def clauses(self, what: str):
        """(index, word) heading each clause of a `{...}` body."""
        self.expect("{")
        while self.tokens[self.pos] != "}":
            key = self.pos
            yield key, self.word(what)
            if self.tokens[self.pos] == ";":
                self.pos += 1
            elif self.tokens[self.pos] != "}":
                self.fail("expected ';' or '}'")
        self.pos += 1


def _parse_feature(p: _Parser) -> RawFeature:
    head = p.pos
    feat = RawFeature(p.word("a feature name"), [], [])
    feat.line, feat.column = p.at(head)
    for key, clause in p.clauses("a feature clause"):
        p.expect(":")
        if clause == "values":
            feat.values = p.word_list()
        elif clause == "prior":
            feat.prior = p.number_list()
        elif clause == "parents":
            feat.parents = p.word_list()
        elif clause == "cpt":
            feat.cpt = feat.cpt if feat.cpt is not None else []
            feat.cpt.append(_parse_cpt_row(p, key))
        else:
            p.fail(f"unknown feature clause {clause!r}", key)
    if not feat.values:
        p.fail(f"feature {feat.name!r} has no values clause", head)
    if not feat.prior:
        p.fail(f"feature {feat.name!r} has no prior clause", head)
    return feat


def _parse_cpt_row(p: _Parser, key: int) -> RawCptRow:
    # Either "v1, v2 | terminal -> probs" or "terminal -> probs" (no parents).
    start = p.pos
    names = p.items()
    bad = _find(names, 0, _NOT_NAMES.__contains__)
    if bad < len(names):
        p.pos = start + 2 * bad
        p.fail("expected a parent value or '*' after ','" if bad else
               "expected a parent value, '*', or a terminal")
    if p.tokens[p.pos] == "|":
        p.pos += 1
        terminal = p.tokens[p.pos]
        if terminal in _NOT_NAMES:
            p.fail("expected a terminal or '*' after '|'")
        p.pos += 1
        p.expect("->")
    elif p.tokens[p.pos] == "->":
        p.pos += 1
        if len(names) != 1:
            p.fail("cpt row without '|' must name exactly one terminal", key)
        names, terminal = [], names[0]
    else:
        p.fail("expected ',', '|' or '->' in cpt row")
    return RawCptRow(names, terminal, p.number_list(), *p.at(key))


def _parse_production(p: _Parser) -> RawProduction:
    head = p.pos
    index = p.number("a production index", int)
    p.expect(":")
    lhs = p.word("a left-hand symbol")
    p.expect("->")
    rhs = p.tokens[p.pos:_find(p.tokens, p.pos, _NOT_WORDS.__contains__)]
    p.pos += len(rhs)
    prod = RawProduction(index, lhs, rhs)
    prod.line, prod.column = p.at(head)
    saw_default = False
    for key, clause in p.clauses("'rule' or 'default'"):
        if clause == "rule":
            prod.rules.append(_parse_rule(p, key))
        elif clause == "default":
            p.expect(":")
            prod.default = p.number("a probability")
            saw_default = True
        else:
            p.fail(f"expected 'rule' or 'default', found {clause!r}", key)
    if not saw_default:
        p.fail(f"production {index} has no default clause", head)
    return prod


def _parse_rule(p: _Parser, key: int) -> RawRule:
    guard = []
    while True:
        feat = p.word("a feature name")
        p.expect("in")
        p.expect("{")
        guard.append((feat, p.word_list("a value")))
        p.expect("}")
        if p.tokens[p.pos] != "&":
            break
        p.pos += 1
    p.expect(":")
    return RawRule(guard, p.number("a probability"), *p.at(key))


def parse_text(text: str) -> tuple[RawGrammar | None, list[Diagnostic]]:
    """Parse grammar text into raw declarations without validating them."""
    try:
        p = _Parser(text)
        features, productions = [], []
        start, start_line = None, 0
        while p.tokens[p.pos] != _END:
            head = p.pos
            decl = p.word("'feature', 'start' or 'prod'")
            if decl == "feature":
                features.append(_parse_feature(p))
            elif decl == "start":
                if start is not None:
                    p.fail("start symbol declared twice", head)
                start = p.word("a start symbol")
                start_line = p.lines[p.pos - 1]
            elif decl == "prod":
                productions.append(_parse_production(p))
            else:
                p.fail("expected 'feature', 'start' or 'prod', "
                       f"found {decl!r}", head)
        if start is None:
            raise _ParseFailure("no start symbol declared", 1, 1)
        return RawGrammar(features, productions, start, start_line), []
    except _ParseFailure as e:
        return None, [e.diagnostic]


def validate_text(text: str) -> tuple[Psdg | None, list[Diagnostic]]:
    """Parse and validate; returns either the grammar or all diagnostics."""
    raw, diags = parse_text(text)
    if raw is None:
        return None, diags
    return validate_grammar(raw)


def load_text(text: str) -> Psdg:
    psdg, diags = validate_text(text)
    if psdg is None:
        raise GrammarError(diags)
    return psdg


def load_file(path) -> Psdg:
    with open(path, "r", encoding="utf-8") as fh:
        return load_text(fh.read())
