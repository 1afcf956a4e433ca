"""Independent brute-force oracles used to derive expected test values.

Everything here deliberately avoids the library's optimized paths: doms come
from literal history-pair flips, full specifications from the literal
settles-every-event definition, posets from enumerating all pair-state
assignments, conditionals from plain Fraction arithmetic. The oracles stay
slow and obvious so the production code has something honest to disagree
with.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb

from causetlab.measure import CcsVerdict, CommonCauseVerdict


_pair_cache: dict = {}


def histories_agreeing_everywhere_but(space, s):
    """All unordered history pairs that differ exactly at element s."""
    # the pair structure depends only on the shape of the product space
    key = (space.causet.n, space.q, s)
    cached = _pair_cache.get(key)
    if cached is not None:
        return cached
    pairs = []
    for h1 in range(space.size):
        for h2 in range(h1 + 1, space.size):
            diff = [
                i for i in range(space.causet.n)
                if space._value(h1, i) != space._value(h2, i)
            ]
            if diff == [s]:
                pairs.append((h1, h2))
    _pair_cache[key] = pairs
    return pairs


def brute_dom(space, event):
    """Dependency set by checking every single-element history flip."""
    dom = 0
    for s in range(space.causet.n):
        for h1, h2 in histories_agreeing_everywhere_but(space, s):
            if bool(event >> h1 & 1) != bool(event >> h2 & 1):
                dom |= 1 << s
                break
    return dom


_dom_cache: dict = {}


def brute_gamma(space, region):
    """All events whose brute-force dom sits inside the region."""
    assert space.size <= 16
    # like the pair structure, every event's dom depends only on the shape
    key = (space.causet.n, space.q)
    doms = _dom_cache.get(key)
    if doms is None:
        doms = _dom_cache[key] = [brute_dom(space, e) for e in range(space.omega + 1)]
    return [e for e, d in enumerate(doms) if d & ~region == 0]


def brute_phi(space, region):
    """Literal full-specification filter: nonempty, decidable in the region,
    and inside or outside every event decidable in the region."""
    return brute_phi_over(brute_gamma(space, region))


def brute_phi_over(decidable):
    """The literal full-specification filter over a given Gamma: its nonempty
    events that lie inside or outside every event of it, in its order."""
    out = []
    for f in decidable:
        if f == 0:
            continue
        if all((f & ~x == 0) or (f & x == 0) for x in decidable):
            out.append(f)
    return out


_phi_cache: dict = {}


def brute_axiom2(space, universe, dom_of, family_size):
    """Dom axiom 2 as the literal family sweep, in the checker's JSON form.

    Events are grouped by dom_of, groups ascending. Each family of 2 to
    family_size distinct members of a group, in depth-first order (every
    family before its extensions), needs an intersection with a dom, one
    that lies in the group's dom; the sweep stops at the first that has
    none (dom_of returns None) or another. The full-region group is
    counted, not evaluated: every dom lies in it.
    """
    labels = space.causet.labels
    groups = {}
    for e in sorted(set(universe)):
        groups.setdefault(dom_of(e), []).append(e)
    checked = 0
    for region in sorted(groups):
        members = groups[region]
        if region == space.causet.full:
            checked += sum(comb(len(members), k) for k in range(2, family_size + 1))
            continue
        picks = sorted(
            c for k in range(2, family_size + 1) for c in combinations(range(len(members)), k)
        )
        for pick in picks:
            checked += 1
            family = [members[i] for i in pick]
            inter = space.omega
            for e in family:
                inter &= e
            got = dom_of(inter)
            if got is None:
                return {"axiom": 2, "passed": False, "checked": checked, "witness": {
                    "family": [space.event_keys(e) for e in family],
                    "reason": "intersection has no dom assigned",
                }}
            if got & ~region:
                return {"axiom": 2, "passed": False, "checked": checked, "witness": {
                    "family": [space.event_keys(e) for e in family],
                    "dom_of_intersection": list(labels(got)),
                    "common_dom": list(labels(region)),
                }}
    return {"axiom": 2, "passed": True, "checked": checked, "witness": None}


def brute_axiom4(space, universe, dom_of):
    """Dom axiom 4 as a literal per-split loop, in the checker's JSON form.

    For each event z, ascending, with d = dom_of(z): every unordered split
    (X, Y) of d, X running over the submasks of d in descending order and
    each pair taken at its first visit. The atoms of a split are the
    nonempty cx & cy over brute_phi(X) x brute_phi(Y), in that order; z
    fails on the first atom it splits.
    """
    labels = space.causet.labels
    checked = 0
    for z in sorted(set(universe)):
        d = dom_of(z)
        seen = set()
        for x in range(d, -1, -1):
            y = d ^ x
            if x & ~d or (y, x) in seen:
                continue
            seen.add((x, y))
            checked += 1
            for cx in _shape_phi(space, x):
                for cy in _shape_phi(space, y):
                    atom = cx & cy
                    if atom & z and atom & ~z:
                        return {"axiom": 4, "passed": False, "checked": checked, "witness": {
                            "event": space.event_keys(z),
                            "split": [list(labels(x)), list(labels(y))],
                            "split_atom": space.event_keys(atom),
                        }}
    return {"axiom": 4, "passed": True, "checked": checked, "witness": None}


def _shape_phi(space, region):
    key = (space.causet.n, space.q, region)
    if key not in _phi_cache:
        _phi_cache[key] = brute_phi(space, region)
    return _phi_cache[key]


def brute_decides(space, event, region):
    """Does knowing a history's restriction to the region settle the event?"""
    for h1 in range(space.size):
        for h2 in range(space.size):
            agree = all(
                space._value(h1, i) == space._value(h2, i)
                for i in range(space.causet.n)
                if region >> i & 1
            )
            if agree and bool(event >> h1 & 1) != bool(event >> h2 & 1):
                return False
    return True


# -- posets -------------------------------------------------------------------


def brute_poset_count(n):
    """Number of n-element posets up to isomorphism, by trying all 3^(n(n-1)/2)
    pair states (incomparable, i<j, j<i), keeping the transitive ones and
    deduplicating by minimum over all relabelings."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for code in range(3 ** len(pairs)):
        rows = [0] * n
        rest = code
        for i, j in pairs:
            state = rest % 3
            rest //= 3
            if state == 1:
                rows[i] |= 1 << j
            elif state == 2:
                rows[j] |= 1 << i
        if _transitive(rows):
            seen.add(_canon_pairs(rows, n))
    return len(seen)


def _transitive(rows):
    for i, row in enumerate(rows):
        rest = row
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            if rows[j] & ~row:
                return False
    return True


def _canon_pairs(rows, n):
    rel = [
        (i, j) for i in range(n) for j in range(n) if rows[i] >> j & 1
    ]
    best = None
    for perm in permutations(range(n)):
        mapped = tuple(sorted((perm[i], perm[j]) for i, j in rel))
        if best is None or mapped < best:
            best = mapped
    return best


def brute_automorphisms(rows):
    """Every relabeling, as the tuple of element images, that maps the
    relation onto itself."""
    n = len(rows)
    return [
        perm for perm in permutations(range(n))
        if all(
            sum(1 << perm[j] for j in range(n) if rows[i] >> j & 1) == rows[perm[i]]
            for i in range(n)
        )
    ]


def _relabelled(rows, perm):
    """The matrix with perm[a] placed at position a, and its block sequence:
    block d holds the row entries (d, j), then the column entries (j, d),
    for j < d."""
    n = len(rows)
    matrix = [
        sum((rows[perm[a]] >> perm[b] & 1) << b for b in range(n))
        for a in range(n)
    ]
    blocks = [
        tuple(matrix[d] >> j & 1 for j in range(d))
        + tuple(matrix[j] >> d & 1 for j in range(d))
        for d in range(n)
    ]
    return blocks, tuple(matrix)


def brute_canonical_form(rows):
    """The relabelled matrix whose block sequence is least over all n!
    relabelings."""
    return min(_relabelled(rows, perm) for perm in permutations(range(len(rows))))[1]


def brute_least_labelings(rows):
    """Every labeling (the element placed at each position) whose block
    sequence is least over all n! relabelings."""
    labelings = {perm: _relabelled(rows, perm)[0] for perm in permutations(range(len(rows)))}
    least = min(labelings.values())
    return {perm for perm, blocks in labelings.items() if blocks == least}


# -- probability ---------------------------------------------------------------


def brute_prob(measure, event):
    return sum(
        (measure.weights[h] for h in range(measure.space.size) if event >> h & 1),
        Fraction(0),
    )


def brute_screens(measure, a, b, c, prob=brute_prob):
    pc = prob(measure, c)
    if pc == 0:
        return True
    return prob(measure, a & b & c) / pc == (
        prob(measure, a & c) / pc
    ) * (prob(measure, b & c) / pc)


def brute_common_cause(measure, a, b, c, relevance="printed", zero_mode="vacuous"):
    """The common cause verdict with every condition decided in Fraction
    arithmetic on conditional probabilities, in the verdict's condition
    order."""

    def prob(e):
        return brute_prob(measure, e)

    failed, sides, zero = [], {}, []
    pab, pa_pb = prob(a & b), prob(a) * prob(b)
    if not pab > pa_pb:
        failed.append("not-correlated")
        sides["not-correlated"] = (pab, pa_pb)
    comp = measure.space.omega & ~c
    for name, cell in (("screen-on-C", c), ("screen-on-C^c", comp)):
        pc = prob(cell)
        if pc == 0:
            if zero_mode == "strict":
                zero.append(name)
            continue
        lhs = prob(a & b & cell) / pc
        rhs = (prob(a & cell) / pc) * (prob(b & cell) / pc)
        if lhs != rhs:
            failed.append(name)
            sides[name] = (lhs, rhs)
    for name, ev in (("relevance-A", a), ("relevance-B", b)):
        if relevance == "printed":
            lhs, rhs = prob(ev & c), prob(ev & comp)
        else:
            pc, pcc = prob(c), prob(comp)
            if pc == 0 or pcc == 0:
                failed.append(name)
                sides[name] = (Fraction(0), Fraction(0))
                continue
            lhs, rhs = prob(ev & c) / pc, prob(ev & comp) / pcc
        if not lhs > rhs:
            failed.append(name)
            sides[name] = (lhs, rhs)
    return CommonCauseVerdict(not failed, tuple(failed), sides, tuple(zero))


def brute_ccs(measure, a, b, partition, zero_mode="vacuous"):
    """The common cause system verdict for a valid partition, every test in
    Fraction arithmetic: correlation, then screening cell by cell, then the
    cross relevance of every ordered pair of positive cells."""

    def prob(e):
        return brute_prob(measure, e)

    probs = [prob(cell) for cell in partition]
    zero = tuple(i for i, p in enumerate(probs) if p == 0) if zero_mode == "strict" else ()
    pab, pa_pb = prob(a & b), prob(a) * prob(b)
    if not pab > pa_pb:
        return CcsVerdict(False, {"kind": "not-correlated", "lhs": pab, "rhs": pa_pb}, zero)
    for i, cell in enumerate(partition):
        if probs[i] == 0:
            continue
        lhs = prob(a & b & cell) / probs[i]
        rhs = prob(a & cell) * prob(b & cell) / probs[i] ** 2
        if lhs != rhs:
            return CcsVerdict(False, {"kind": "screening", "cell": i, "lhs": lhs, "rhs": rhs}, zero)
    positive = [i for i, p in enumerate(probs) if p > 0]
    for i in positive:
        for j in positive:
            if i == j:
                continue
            da = prob(a & partition[i]) / probs[i] - prob(a & partition[j]) / probs[j]
            db = prob(b & partition[i]) / probs[i] - prob(b & partition[j]) / probs[j]
            if not da * db > 0:
                return CcsVerdict(False, {"kind": "relevance", "cells": (i, j), "lhs": da * db,
                                          "rhs": Fraction(0)}, zero)
    return CcsVerdict(True, None, zero)


def brute_partitions(size):
    """All set partitions of range(size) as lists of bitmasks (recursive,
    independent of the library's restricted-growth enumeration)."""
    if size == 0:
        return [[]]
    out = []

    def rec(h, cells):
        if h == size:
            out.append([c for c in cells])
            return
        for i in range(len(cells)):
            cells[i] |= 1 << h
            rec(h + 1, cells)
            cells[i] &= ~(1 << h)
        cells.append(1 << h)
        rec(h + 1, cells)
        cells.pop()

    rec(0, [])
    return out


def brute_replication_steps(measure, gam_a, gam_b, phi_x, phi_y, phi_p1):
    """Steps 1 and 2 of the SO1 => SO2 replication as (checked, failures):
    the literal loop over X, Y, C and then A, B in the orders given, every
    test decided by Fraction arithmetic. Step-1 failures of one (A, B) come
    in the order A&X,B&Y / A&X,B / A,B&Y, after the block's X,Y failure."""
    keys = measure.space.event_keys
    memo = {}

    def prob(measure, e):
        # brute_prob once per event: the loop asks for the same events often
        if e not in memo:
            memo[e] = brute_prob(measure, e)
        return memo[e]

    step1, step2 = [], []
    checked1 = checked2 = 0
    for x in phi_x:
        for y in phi_y:
            for c in phi_p1:
                if prob(measure, c) == 0:
                    continue
                k = c & x & y
                pk = prob(measure, k)
                checked1 += 1 + 3 * len(gam_a) * len(gam_b)
                checked2 += len(gam_a) * len(gam_b) if pk else 0
                if not brute_screens(measure, x, y, c, prob):
                    step1.append({"pair": "X,Y", "x": keys(x), "y": keys(y), "screener": keys(c)})
                for a in gam_a:
                    for b in gam_b:
                        for kind, e1, e2 in (("A&X,B&Y", a & x, b & y), ("A&X,B", a & x, b),
                                             ("A,B&Y", a, b & y)):
                            if not brute_screens(measure, e1, e2, c, prob):
                                step1.append({"pair": kind, "event_1": keys(e1),
                                              "event_2": keys(e2), "screener": keys(c)})
                        if pk and not brute_screens(measure, a, b, k, prob):
                            step2.append({
                                "a": keys(a), "b": keys(b), "k": keys(k),
                                "lhs": prob(measure, a & k) / pk * (prob(measure, b & k) / pk),
                                "rhs": prob(measure, a & b & k) / pk,
                            })
    return (checked1, step1), (checked2, step2)
