"""Frozen reference copy of the PCFG export: the completion matrices, the
recursive tuple-production expansion and the text listing.

`test_oracle.py` holds `psdg.oracle.to_pcfg` and `pcfg_text` to this copy:
on any grammar both must give an equal `Pcfg` (start weights, rules in
order, insertion order, terminal symbols), the same listing bytes and the
same ExplosionBound message.  Do not edit it to follow the package; it is
the behaviour the package export must keep.
"""
from __future__ import annotations

import functools

import numpy as np

from psdg.errors import ExplosionBound
from psdg.grammar import Psdg, enumerate_states, prior_probability
from psdg.oracle import NT, TERM, Pcfg, PcfgProduction, _transition_options
from referee import production_probability

PCFG_BOUND = 10**7      # to_pcfg's cap on tuple symbols


def _completion_matrices(psdg: Psdg, states: list[tuple[int, ...]]
                         ) -> dict[str, np.ndarray]:
    """E_sym[i, j] = Pr(an expansion of sym begun in state i completes,
    leaving state j after its final terminal)."""
    n = len(states)
    pos = {q: i for i, q in enumerate(states)}
    mats: dict[str, np.ndarray] = {}
    for x in psdg.terminals:
        m = np.zeros((n, n))
        for i, q in enumerate(states):
            for nxt, p in _transition_options(psdg, q, x):
                m[i, pos[nxt]] = p
        mats[x] = m

    # X needs every rhs symbol but a trailing self-reference, and each of
    # those sits a level below every level of X, so deepest level first is
    # a dependency order.  Unreachable symbols have no levels and no caller.
    for sym in sorted((s for s in psdg.nonterminals if psdg.levels[s]),
                      key=lambda s: -psdg.levels[s][-1]):
        a_mat = np.zeros((n, n))
        b_mat = np.zeros((n, n))
        for a in psdg.by_lhs[sym]:
            prod = psdg.production(a)
            probs = np.array([production_probability(psdg, a, q)
                              for q in states])
            body = prod.rhs[:-1] if prod.tail_recursive else prod.rhs
            chain = np.eye(n)
            for y in body:
                chain = chain @ mats[y]
            contrib = probs[:, None] * chain
            if prod.tail_recursive:
                b_mat += contrib
            else:
                a_mat += contrib
        if not a_mat.any():
            mats[sym] = np.zeros((n, n))
            continue
        try:
            mats[sym] = np.linalg.solve(np.eye(n) - b_mat, a_mat)
        except np.linalg.LinAlgError:
            # a recursion that completes with probability approaching zero;
            # fall back to the geometric series
            e = a_mat.copy()
            for _ in range(200000):
                nxt = a_mat + b_mat @ e
                if np.max(np.abs(nxt - e)) < 1e-16:
                    e = nxt
                    break
                e = nxt
            mats[sym] = e
    return mats


def to_pcfg(psdg: Psdg) -> Pcfg:
    """State-annotated constant-probability grammar over complete trees.

    Nonterminals are ⟨q_in, X, q_out⟩ tuples; a tuple production's
    probability is the source production's probability at q_in times the
    chance of exactly that intermediate state chain, normalized by the
    tuple's total completion mass.  Per-lhs probabilities then sum to 1,
    and a complete tree's probability (start weight times production
    probabilities) equals its probability under the source grammar.
    Start weights are unnormalized: their total is the probability that
    the root plan ever completes.  Raises ExplosionBound past PCFG_BOUND
    tuple symbols.
    """
    states = enumerate_states(psdg)
    n = len(states)
    if len(psdg.nonterminals) * n * n > PCFG_BOUND:
        raise ExplosionBound(
            f"{len(psdg.nonterminals)} nonterminals over {n} states exceeds "
            f"bound {PCFG_BOUND}")
    pos = {q: i for i, q in enumerate(states)}
    mats = _completion_matrices(psdg, states)

    start: dict[tuple, float] = {}
    for q0 in states:
        p0 = prior_probability(psdg, q0)
        if p0 <= 0.0:
            continue
        row = mats[psdg.start][pos[q0]]
        for j, qf in enumerate(states):
            if row[j] > 0.0:
                start[(NT, q0, psdg.start, qf)] = p0 * row[j]

    productions: dict[tuple, list[PcfgProduction]] = {}
    terminal_symbols: set[tuple] = set()
    pending = list(start)
    seen = set(pending)
    while pending:
        lhs = pending.pop()
        _, q_in, sym, q_out = lhs
        total = mats[sym][pos[q_in], pos[q_out]]
        rules: list[PcfgProduction] = []
        for a in psdg.by_lhs[sym]:
            prod = psdg.production(a)
            p = production_probability(psdg, a, q_in)
            if p <= 0.0:
                continue

            def expand(i: int, q: tuple[int, ...], factor: float,
                       rhs: tuple[tuple, ...]):
                if i == len(prod.rhs):
                    if q == q_out and factor > 0.0:
                        rules.append(PcfgProduction(a, rhs, factor / total))
                    return
                y = prod.rhs[i]
                kind = TERM if psdg.is_terminal(y) else NT
                row = mats[y][pos[q]]
                if i == len(prod.rhs) - 1:
                    # the last symbol must land exactly on q_out
                    f = row[pos[q_out]]
                    if f > 0.0:
                        expand(i + 1, q_out, factor * f,
                               rhs + ((kind, q, y, q_out),))
                    return
                for j in np.flatnonzero(row > 0.0):
                    q2 = states[j]
                    expand(i + 1, q2, factor * row[j],
                           rhs + ((kind, q, y, q2),))

            expand(0, q_in, p, ())
        productions[lhs] = rules
        for rule in rules:
            for child in rule.rhs:
                if child[0] == TERM:
                    terminal_symbols.add(child)
                elif child not in seen:
                    seen.add(child)
                    pending.append(child)
        if len(seen) + len(terminal_symbols) > PCFG_BOUND:
            raise ExplosionBound(
                f"converted grammar exceeds bound {PCFG_BOUND}")
    return Pcfg(psdg, start, productions, terminal_symbols)


def _render_state(psdg: Psdg, idx: tuple[int, ...]) -> str:
    return ",".join(f.values[v] for f, v in zip(psdg.features, idx))


def _render_symbol(psdg: Psdg, sym: tuple) -> str:
    _, q, name, q2 = sym
    return f"<{_render_state(psdg, q)}|{name}|{_render_state(psdg, q2)}>"


def pcfg_text(pcfg: Pcfg) -> str:
    """Plain `lhs -> rhs  # prob` listing, start weights as comments."""
    render = functools.cache(functools.partial(_render_symbol, pcfg.psdg))
    lines = []
    for sym, w in sorted(pcfg.start.items(), key=lambda kv: str(kv[0])):
        lines.append(f"# start {render(sym)}  # {w:.12g}")
    for lhs in sorted(pcfg.productions, key=str):
        for rule in pcfg.productions[lhs]:
            rhs = " ".join(render(s) for s in rule.rhs)
            lines.append(f"{render(lhs)} -> {rhs}  # {rule.prob:.12g}")
    for sym in sorted(pcfg.terminal_symbols, key=str):
        lines.append(f"{render(sym)} -> {sym[2]}  # 1")
    return "\n".join(lines) + "\n"
