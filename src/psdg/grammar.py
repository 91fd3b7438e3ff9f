"""Core types for probabilistic state-dependent grammars (PSDGs).

A PSDG is a context-free grammar whose production probabilities are
functions of a world state rather than constants.  The state lives in a
finite factored space: a fixed list of features, each with a finite value
domain.  The grammar owns three probability objects:

* per-production probability functions p(q), guard-rule tables over the
  factored state, normalized per left-hand symbol for every state q;
* a factored prior over the initial state (one independent distribution
  per feature);
* factored single-step state dynamics: each feature carries a CPT whose
  parents are previous-step features plus the terminal emitted this step.

Symbols are classified implicitly: anything that appears as a left-hand
side is a nonterminal, everything else appearing on a right-hand side is a
terminal.  Recursion is restricted to direct tail recursion (the left-hand
symbol may reappear only as the final right-hand symbol), which keeps the
expansion depth of every derivation bounded; the validator rejects
anything else.

Every function that takes or returns a state takes a plain tuple of
value indices, one per feature in declaration order; `Psdg.labels` and
`Psdg.state_key` name one.  StatePoint only records the states of a
trajectory, and StateSet is a product-form set of states.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from .errors import Diagnostic, SetTooLarge

NORMALIZATION_TOL = 1e-9
DISTRIBUTION_TOL = 1e-12
DEFAULT_SET_BOUND = 10**6


### Raw (pre-validation) declarations.  The text parser and the test
### builders both produce these; validate_grammar turns them into a Psdg.


@dataclass
class RawFeature:
    name: str
    values: list[str]
    prior: list[float]
    parents: list[str] | None = None      # None means "self" with identity rows
    cpt: list[RawCptRow] | None = None
    line: int = 0
    column: int = 0


@dataclass
class RawCptRow:
    parent_values: list[str]              # one per parent, "*" wildcard allowed
    terminal: str                         # terminal name or "*"
    probs: list[float]
    line: int = 0
    column: int = 0


@dataclass
class RawRule:
    guard: list[tuple[str, list[str]]]    # conjunction of feature-in-set tests
    value: float
    line: int = 0
    column: int = 0


@dataclass
class RawProduction:
    index: int
    lhs: str
    rhs: list[str]
    rules: list[RawRule] = field(default_factory=list)
    default: float = 1.0
    line: int = 0
    column: int = 0


@dataclass
class RawGrammar:
    features: list[RawFeature]
    productions: list[RawProduction]
    start: str
    start_line: int = 0


### Validated model types.


@dataclass(frozen=True)
class FeatureSpec:
    """A validated feature.  `table` is the CPT compiled at validation:
    table[terminal][parent_key(prev)] is the first declared row matching
    that terminal and those previous parent values.  `parent_key` reads
    the parent values of a full previous state: a bare value index for
    one parent, a tuple for several, () for none."""

    name: str
    values: tuple[str, ...]
    prior: tuple[float, ...]
    table: dict[str, dict[object, tuple[float, ...]]] = field(
        compare=False, repr=False)
    parent_key: Callable[[tuple[int, ...]], object] = field(
        compare=False, repr=False)


@dataclass(frozen=True)
class StatePoint:
    """A state of a trajectory: one value index per feature, in feature
    declaration order."""

    idx: tuple[int, ...]


class StateSet:
    """A product-form set of states: an allowed value subset per feature.

    Iteration order is lexicographic over feature declaration order with
    values in domain order, so it is deterministic.
    """

    __slots__ = ("allowed",)

    def __init__(self, allowed: tuple[frozenset[int], ...]):
        if any(not s for s in allowed):
            raise ValueError("state set has an empty feature component")
        self.allowed = allowed

    @classmethod
    def full(cls, psdg: Psdg) -> StateSet:
        return cls(tuple(frozenset(range(len(f.values))) for f in psdg.features))

    @classmethod
    def from_labels(cls, psdg: Psdg, mapping: dict[str, object]) -> StateSet:
        """Build from {feature: value-or-list}; absent features are
        unconstrained.  Raises ValueError on unknown names."""
        allowed = [set(range(len(f.values))) for f in psdg.features]
        for name, vals in mapping.items():
            if name not in psdg.feature_index:
                raise ValueError(f"unknown feature {name!r} in observation")
            fi = psdg.feature_index[name]
            feat = psdg.features[fi]
            if isinstance(vals, str):
                vals = [vals]
            elif not isinstance(vals, (list, tuple)):
                raise ValueError(f"values of feature {name!r} must be a "
                                 f"name or a list of names, not {vals!r}")
            chosen = set()
            for v in vals:
                if v not in feat.values:
                    raise ValueError(f"unknown value {v!r} for feature {name!r}")
                chosen.add(feat.values.index(v))
            if not chosen:
                raise ValueError(f"empty constraint for feature {name!r}")
            allowed[fi] = chosen
        return cls(tuple(frozenset(a) for a in allowed))

    def size(self) -> int:
        return math.prod(len(s) for s in self.allowed)

    def __contains__(self, idx: tuple[int, ...]) -> bool:
        return all(v in s for v, s in zip(idx, self.allowed))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StateSet) and self.allowed == other.allowed

    def __hash__(self) -> int:
        return hash(self.allowed)

    def iter_states(self):
        return itertools.product(*(sorted(s) for s in self.allowed))


@dataclass(frozen=True)
class ProbabilityFunction:
    """State-dependent probability: an ordered guard-rule table.

    Each rule is (guard, value) where the guard is a conjunction of
    feature-in-set tests over value indices.  Evaluation walks the rules
    first to last and falls through to the default.
    """

    rules: tuple[tuple[tuple[tuple[int, frozenset[int]], ...], float], ...]
    default: float

    def evaluate(self, idx: tuple[int, ...]) -> float:
        for guard, value in self.rules:
            if all(idx[f] in vals for f, vals in guard):
                return value
        return self.default


@dataclass(frozen=True)
class Production:
    index: int
    lhs: str
    rhs: tuple[str, ...]
    prob: ProbabilityFunction
    tail_recursive: bool


class Psdg:
    """A validated grammar.  Treat as immutable after construction.

    Guards read a state only through `feature in {...}` tests, so values
    that every test on their feature treats alike form a class, named by
    its least value in `guard_classes`; a state's guard cell, on whose
    states every production evaluates alike, is named by its least state.
    """

    def __init__(
        self,
        features: tuple[FeatureSpec, ...],
        start: str,
        productions: tuple[Production, ...],
        terminals: tuple[str, ...],
        nonterminals: tuple[str, ...],
        levels: dict[str, tuple[int, ...]],
        depth: int,
    ):
        self.features = features
        self.feature_index = {f.name: i for i, f in enumerate(features)}
        self.start = start
        self.productions = productions
        self._by_index = {p.index: p for p in productions}
        self.terminals = terminals
        self.terminal_set = frozenset(terminals)
        self.nonterminals = nonterminals
        self.by_lhs = {
            nt: tuple(p.index for p in productions if p.lhs == nt)
            for nt in nonterminals
        }
        self.levels = levels
        self.depth = depth
        self.max_rhs = max(len(p.rhs) for p in productions)
        self.state_count = math.prod(len(f.values) for f in features)
        self.guard_classes = tuple(
            _least_alike(len(f.values), [vals for p in productions
                                         for guard, _ in p.prob.rules
                                         for g, vals in guard if g == fi])
            for fi, f in enumerate(features))

    def is_terminal(self, sym: str) -> bool:
        return sym in self.terminal_set

    def production(self, index: int) -> Production:
        """The production with this index; KeyError for an unknown one."""
        return self._by_index[index]

    def guard_cell(self, idx: tuple[int, ...]) -> tuple[int, ...]:
        """The least state of the guard cell holding state `idx`."""
        return tuple(least[v] for least, v in zip(self.guard_classes, idx))

    def labels(self, idx: tuple[int, ...]) -> dict[str, str]:
        """The state's value label per feature name."""
        return {f.name: f.values[v] for f, v in zip(self.features, idx)}

    def state_key(self, idx: tuple[int, ...]) -> str:
        """The state's value labels joined by `|`, as reports print it."""
        return "|".join(f.values[v] for f, v in zip(self.features, idx))

    def summary(self) -> dict[str, int]:
        return {
            "nonterminals": len(self.nonterminals),
            "terminals": len(self.terminals),
            "productions": len(self.productions),
            "depth": self.depth,
            "max_rhs": self.max_rhs,
            "states": self.state_count,
        }


def _least_alike(n: int, tests) -> tuple[int, ...]:
    """For each of values 0..n-1, the least value that is in exactly the
    same value sets of `tests`."""
    first: dict[tuple, int] = {}
    return tuple(first.setdefault(tuple(v in t for t in tests), v)
                 for v in range(n))


### Evaluation.


def production_probability(psdg: Psdg, index: int,
                           idx: tuple[int, ...]) -> float:
    """p(q) for the production with this index, at state idx."""
    return psdg.production(index).prob.evaluate(idx)


def prior_probability(psdg: Psdg, idx: tuple[int, ...]) -> float:
    p = 1.0
    for f, v in zip(psdg.features, idx):
        p *= f.prior[v]
    return p


def _feature_transition(psdg: Psdg, fi: int, prev: tuple[int, ...], terminal: str):
    """Feature fi's distribution after `prev` emits `terminal`."""
    feat = psdg.features[fi]
    return feat.table[terminal][feat.parent_key(prev)]


def _key_getter(indices):
    """Reads a CPT table key out of a sequence of value indices."""
    if indices:
        return itemgetter(*indices)
    return lambda _: ()


def enumerate_states(psdg: Psdg):
    """All states, as index tuples.

    Raises SetTooLarge instead of materializing something enormous.
    """
    if psdg.state_count > DEFAULT_SET_BOUND:
        raise SetTooLarge(f"{psdg.state_count} states exceeds bound "
                          f"{DEFAULT_SET_BOUND}")
    return list(StateSet.full(psdg).iter_states())


### Validation.


def validate_grammar(raw: RawGrammar) -> tuple[Psdg | None, list[Diagnostic]]:
    """Check a raw grammar and build the validated model.

    Returns (psdg, []) on success or (None, diagnostics) with every
    violation found, in deterministic order.
    """
    diags: list[Diagnostic] = []

    # Features.
    fnames = [f.name for f in raw.features]
    for name in sorted(set(fnames)):
        if fnames.count(name) > 1:
            diags.append(Diagnostic("BadDistribution",
                                    f"feature {name!r} declared more than once"))
    if not raw.features:
        diags.append(Diagnostic("BadDistribution", "no features declared"))
    feature_index = {f.name: i for i, f in enumerate(raw.features)}
    value_index = [{v: i for i, v in enumerate(f.values)} for f in raw.features]

    for f in raw.features:
        if not f.values:
            diags.append(Diagnostic("BadDistribution",
                                    f"feature {f.name!r} has no values",
                                    f.line, f.column))
            continue
        if len(set(f.values)) != len(f.values):
            diags.append(Diagnostic("BadDistribution",
                                    f"feature {f.name!r} has duplicate values",
                                    f.line, f.column))
        if len(f.prior) != len(f.values):
            diags.append(Diagnostic("BadDistribution",
                                    f"feature {f.name!r} prior has "
                                    f"{len(f.prior)} entries for "
                                    f"{len(f.values)} values",
                                    f.line, f.column))
        else:
            _check_distribution(diags, f.prior, f"prior of feature {f.name!r}",
                                f.line, f.column)

    # Symbol classification.
    lhs_symbols = {p.lhs for p in raw.productions}
    rhs_symbols = {s for p in raw.productions for s in p.rhs}
    nonterminals = tuple(sorted(lhs_symbols))
    terminals = tuple(sorted(rhs_symbols - lhs_symbols))
    if not raw.productions:
        diags.append(Diagnostic("EmptyRhs", "no productions declared"))
    if raw.start not in lhs_symbols:
        diags.append(Diagnostic(
            "UndeclaredSymbol",
            f"start symbol {raw.start!r} never appears as a left-hand side",
            raw.start_line))

    # Productions, each guard resolved to (feature index, value indices).
    productions = []
    by_lhs: dict[str, list[Production]] = {nt: [] for nt in nonterminals}
    seen_idx: set[int] = set()
    for p in sorted(raw.productions, key=lambda p: p.index):
        if p.index < 0:
            diags.append(Diagnostic("BadDistribution",
                                    f"production index {p.index} is negative",
                                    p.line, p.column))
        if p.index in seen_idx:
            diags.append(Diagnostic("BadDistribution",
                                    f"production index {p.index} used twice",
                                    p.line, p.column))
        seen_idx.add(p.index)
        if not p.rhs:
            diags.append(Diagnostic("EmptyRhs",
                                    f"production {p.index} ({p.lhs}) has an "
                                    "empty right-hand side",
                                    p.line, p.column))
            continue
        if p.lhs in p.rhs[:-1] or (len(p.rhs) == 1 and p.rhs[0] == p.lhs):
            diags.append(Diagnostic(
                "NonTailRecursion",
                f"production {p.index}: {p.lhs!r} may recur only as the "
                "final right-hand symbol of a longer production",
                p.line, p.column))
        rules = []
        for rule in p.rules:
            guard = []
            for fname, vals in rule.guard:
                if fname not in feature_index:
                    diags.append(Diagnostic("UndeclaredSymbol",
                                            f"production {p.index} guards on "
                                            f"unknown feature {fname!r}",
                                            rule.line, rule.column))
                    continue
                fi = feature_index[fname]
                for v in vals:
                    if v not in value_index[fi]:
                        diags.append(Diagnostic(
                            "UndeclaredSymbol",
                            f"production {p.index} guards on unknown value "
                            f"{v!r} of feature {fname!r}",
                            rule.line, rule.column))
                guard.append((fi, frozenset(value_index[fi].get(v)
                                            for v in vals)))
            if not 0.0 <= rule.value <= 1.0 + DISTRIBUTION_TOL:
                diags.append(Diagnostic("BadDistribution",
                                        f"production {p.index} rule value "
                                        f"{rule.value} outside [0, 1]",
                                        rule.line, rule.column))
            rules.append((tuple(guard), rule.value))
        if not 0.0 <= p.default <= 1.0 + DISTRIBUTION_TOL:
            diags.append(Diagnostic("BadDistribution",
                                    f"production {p.index} default "
                                    f"{p.default} outside [0, 1]",
                                    p.line, p.column))
        productions.append(Production(
            p.index, p.lhs, tuple(p.rhs),
            ProbabilityFunction(tuple(rules), p.default),
            tail_recursive=len(p.rhs) >= 2 and p.rhs[-1] == p.lhs))
        by_lhs[p.lhs].append(productions[-1])

    # CPTs (terminals are known only now).  Each row, once checked, fills
    # the (parent combo, terminal) pairs it covers that no earlier row did,
    # so each table entry is the first matching row; after any failure
    # nothing is filled, as the tables are dropped.  A feature with parents
    # but no rows, then the pairs no row covers (in combo order, then
    # terminal order), are reported only once every other check is clean.
    features = []
    rowless, gaps = [], []
    for f in raw.features:
        parents = f.parents if f.parents is not None else [f.name]
        unknown = [pname for pname in parents if pname not in feature_index]
        for pname in unknown:
            diags.append(Diagnostic("UndeclaredSymbol",
                                    f"feature {f.name!r} lists unknown "
                                    f"parent {pname!r}", f.line, f.column))
        if f.cpt is None and parents != [f.name]:
            rowless.append(Diagnostic("BadDistribution",
                                      f"feature {f.name!r} declares parents "
                                      "but no CPT rows", f.line, f.column))
            continue
        if unknown or len(f.prior) != len(f.values) or not f.values:
            continue
        pidx = tuple(feature_index[pname] for pname in parents)
        domains = [range(len(raw.features[pi].values)) for pi in pidx]
        slot_key = _key_getter(range(len(pidx)))
        table = {term: {} for term in terminals}
        if f.cpt is None:       # no dynamics given: the feature keeps its value
            n = len(f.values)
            keep = {vi: tuple(float(j == vi) for j in range(n))
                    for vi in range(n)}
            table = dict.fromkeys(terminals, keep)
        for row in f.cpt or ():
            if len(row.parent_values) != len(parents):
                diags.append(Diagnostic("BadDistribution",
                                        f"feature {f.name!r} CPT row has "
                                        f"{len(row.parent_values)} parent values "
                                        f"for {len(parents)} parents",
                                        row.line, row.column))
                continue
            for pname, pi, v in zip(parents, pidx, row.parent_values):
                if v != "*" and v not in value_index[pi]:
                    diags.append(Diagnostic("UndeclaredSymbol",
                                            f"feature {f.name!r} CPT row uses "
                                            f"unknown value {v!r} of parent "
                                            f"{pname!r}",
                                            row.line, row.column))
            if row.terminal != "*" and row.terminal not in terminals:
                diags.append(Diagnostic("UndeclaredSymbol",
                                        f"feature {f.name!r} CPT row conditions "
                                        f"on unknown terminal {row.terminal!r}",
                                        row.line, row.column))
            if len(row.probs) != len(f.values):
                diags.append(Diagnostic("BadDistribution",
                                        f"feature {f.name!r} CPT row has "
                                        f"{len(row.probs)} entries for "
                                        f"{len(f.values)} values",
                                        row.line, row.column))
            else:
                _check_distribution(diags, row.probs,
                                    f"CPT row of feature {f.name!r}",
                                    row.line, row.column)
            if diags:
                continue
            keys = [slot_key(combo) for combo in itertools.product(*(
                dom if v == "*" else (value_index[pi][v],)
                for dom, pi, v in zip(domains, pidx, row.parent_values)))]
            probs = tuple(row.probs)
            for term in terminals if row.terminal == "*" else (row.terminal,):
                fill = table[term].setdefault
                for key in keys:
                    fill(key, probs)
        for combo in itertools.product(*domains):
            key = slot_key(combo)
            for term in terminals:
                if key not in table[term]:
                    vals = ", ".join(
                        f"{raw.features[pi].name}={raw.features[pi].values[c]}"
                        for pi, c in zip(pidx, combo))
                    gaps.append(Diagnostic(
                        "BadDistribution",
                        f"feature {f.name!r} has no CPT row for "
                        f"({vals}) with terminal {term!r}",
                        f.line, f.column))
        features.append(FeatureSpec(f.name, tuple(f.values), tuple(f.prior),
                                    table, _key_getter(pidx)))
    for found in (diags, rowless, gaps):
        if found:
            return None, found

    # Levels.  A symbol's children are the nonterminals on its productions'
    # right-hand sides, save the trailing self-reference of a tail-recursive
    # production, which stays on its parent's level.  A depth-first walk
    # from the start symbol, on its own stack and with children in sorted
    # order, either meets a child already on its path (recursion other than
    # direct tail recursion, named from the cycle's least symbol) or lists
    # the reachable symbols children first.  A cycle the start symbol never
    # reaches is no fault: no derivation enters it.  Read in reverse, the
    # list puts every parent before its children: the start symbol sits at
    # level 1, and each child one level below each level of each parent.
    children = {nt: sorted({s for prod in by_lhs[nt] for s in (
        prod.rhs[:-1] if prod.tail_recursive else prod.rhs) if s in by_lhs})
        for nt in nonterminals}
    path, todo = [raw.start], [iter(children[raw.start])]
    on_path = {raw.start: True}         # False once a symbol is listed
    order = []
    while todo:
        for child in todo[-1]:
            if on_path.get(child):
                cycle = path[path.index(child):]
                least = cycle.index(min(cycle))
                cycle = cycle[least:] + cycle[:least + 1]
                return None, [Diagnostic(
                    "NonTailRecursion",
                    "recursion other than direct tail recursion: cycle "
                    + " -> ".join(cycle))]
            if child not in on_path:
                on_path[child] = True
                path.append(child)
                todo.append(iter(children[child]))
                break
        else:
            todo.pop()
            on_path[path[-1]] = False
            order.append(path.pop())
    levels: dict[str, set[int]] = {raw.start: {1}}
    for sym in reversed(order):
        for child in children[sym]:
            levels.setdefault(child, set()).update(
                lvl + 1 for lvl in levels[sym])

    # Normalization of production probabilities for every state.  A
    # function reads a state only through its guards, so the least state
    # of each guard cell stands for the whole cell; features no guard of
    # the nonterminal tests stay pinned to value 0.  Cells are visited in
    # order of their least states, and any failing state's cell has a
    # least state no greater, so the first failure found is the
    # lexicographically least failing state.
    lv = {nt: tuple(sorted(levels.get(nt, set()))) for nt in nonterminals}
    psdg = Psdg(tuple(features), raw.start, tuple(productions), terminals,
                nonterminals, lv, max(map(max, levels.values())))
    for nt in nonterminals:
        funcs = [prod.prob for prod in by_lhs[nt]]
        scope = {fi for fn in funcs for guard, _ in fn.rules for fi, _ in guard}
        for idx in itertools.product(*(
                sorted(set(least)) if fi in scope else (0,)
                for fi, least in enumerate(psdg.guard_classes))):
            s = sum(f.evaluate(idx) for f in funcs)
            if abs(s - 1.0) > NORMALIZATION_TOL:
                labels = ", ".join(map("=".join, psdg.labels(idx).items()))
                diags.append(Diagnostic(
                    "NormalizationViolation",
                    f"productions of {nt!r} sum to {s:.12g} at state ({labels})"))
                break
    if diags:
        return None, diags
    return psdg, []


def _check_distribution(diags, probs, what, line, column):
    for p in probs:
        if not 0.0 <= p <= 1.0 + DISTRIBUTION_TOL:     # also rejects NaN
            diags.append(Diagnostic("BadDistribution",
                                    f"{what} has entry {p} outside [0, 1]",
                                    line, column))
            return
    if abs(sum(probs) - 1.0) > DISTRIBUTION_TOL:
        diags.append(Diagnostic("BadDistribution",
                                f"{what} sums to {sum(probs):.15g}",
                                line, column))
