"""Exact verification of the tree-probability identity and its k=3 internals.

Over the uniform distribution on pairs of (k-1) index slots in [n] and a
subset tuple of prescribed type, the probability that the successor graph
is a tree equals the probability that the first subset has k-1 elements.
Probabilities are exact ``Fraction`` values throughout, printed as "num/den"
by :func:`ratio`; floats never decide a verdict.
"""
from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import comb, factorial, perm, prod
from typing import Iterator, NamedTuple, Optional, Sequence

from .biddings import TypedGraph, alpha
from .counting import CheckReport, _check_size, _mask_tuples, m_coefficient, strict_subsets


class UndefinedProbabilityError(ValueError):
    """The conditioning event is empty (no subset tuple has the given type)."""


class SamplingError(ValueError):
    """Sampling accepted none of its trials (a usage error: the type is too rare)."""


def ratio(x: Fraction) -> str:
    """``x`` as "num/den" in lowest terms, also when the denominator is 1,
    which ``str(Fraction(1))`` would print as "1"."""
    return f"{x.numerator}/{x.denominator}"


def _subset_multisets(
    n: int, k: int, p: Sequence[int], cap: Optional[int] = None
) -> Iterator[tuple[tuple[tuple[int, int], ...], int]]:
    """Each multiset of n strict subsets of [k] of type p once, with its
    number of arrangements.

    Each multiset is met once, as its sorted arrangement: the subset-tuple
    search of :func:`_mask_tuples` with the masks kept nondecreasing, which
    checks the arguments and the cap at the call, as in :func:`m_tuples`.
    It yields the ``(mask, count)`` pairs of the multiset in mask order and
    the weight ``n! / prod_S count_S!``; the weights sum to M^n_p.
    """
    tuples = _mask_tuples(n, k, p, cap, nondecreasing=True)
    arrangements = factorial(n)

    def weighted(masks: Sequence[int]) -> tuple[tuple[tuple[int, int], ...], int]:
        pairs = tuple((mask, len(list(run))) for mask, run in itertools.groupby(masks))
        return pairs, arrangements // prod(factorial(c) for _, c in pairs)

    return map(weighted, tuples)


@lru_cache(maxsize=None)
def _successor_rows(k: int) -> tuple[tuple[int, ...], ...]:
    """alpha(t, S) for t = 1..k-1, indexed by the mask of S."""
    return tuple(tuple(alpha(t, s, k) for t in range(1, k)) for s in strict_subsets(k))


@lru_cache(maxsize=None)
def _is_tree_map(k: int, f: tuple[int, ...]) -> bool:
    """Whether the successor map f (f[t-1] = successor of t) makes a tree;
    memoized for the life of the process."""
    edges = sorted((min(t, a), max(t, a)) for t, a in enumerate(f, start=1))
    return TypedGraph(k=k, edges=tuple(edges)).is_tree()


def tree_probability(
    n: int, k: int, p: Sequence[int], cap: Optional[int] = None
) -> Fraction:
    """P(successor graph of a uniform pair is a tree), exactly.

    Positions are exchangeable, so only the multiset of a subset tuple R of
    type p matters; each is visited once by :func:`_subset_multisets` and
    weighted by its number of arrangements.  Its n^(k-1) index tuples are
    grouped by successor: with ``mult[t][a]`` the number of i such that
    alpha(t, R_i) = a, the index tuples whose successor graph has the edges
    {t, f(t)} number ``prod_t mult[t][f(t)]``.  Only the maps f made of
    successors that occur are tried, at most min(n, k)^(k-1) per multiset,
    and each is tested with :meth:`TypedGraph.is_tree` once per process.
    """
    _check_size(n, k, p, n_min=1, k_min=1, p_min=0)
    p = tuple(p)
    multisets = _subset_multisets(n, k, p, cap)  # its search checks the cap here
    successors = _successor_rows(k)
    hits = 0
    total_tuples = 0
    for counts, weight in multisets:
        total_tuples += weight
        mult: list[dict[int, int]] = [{} for _ in range(k - 1)]
        for mask, c in counts:
            for row, a in zip(mult, successors[mask]):
                row[a] = row.get(a, 0) + c
        tree_hits = 0
        for f in itertools.product(*mult):
            if _is_tree_map(k, f):
                tree_hits += prod(row[a] for row, a in zip(mult, f))
        hits += weight * tree_hits
    if total_tuples == 0:
        raise UndefinedProbabilityError(f"no subset tuples of type {p}")
    return Fraction(hits, n ** (k - 1) * total_tuples)


def _type_total(n: int, p: tuple[int, ...]) -> int:
    """M^n_p, the number of subset tuples of type p, as the denominator of a
    probability: UndefinedProbabilityError when it is 0."""
    total = m_coefficient(n, p)
    if total == 0:
        raise UndefinedProbabilityError(f"no subset tuples of type {p}")
    return total


def r1_probability(n: int, k: int, p: Sequence[int]) -> Fraction:
    """P(|R_1| = k-1) = sum_t M^(n-1)_(p - 1 + e_t) / M^n_p, exactly.

    R_1 = [k] - {t} leaves n-1 subsets of type p - 1 + e_t.
    """
    _check_size(n, k, p, n_min=1, k_min=1, p_min=0)
    p = tuple(p)
    total = _type_total(n, p)
    hits = sum(
        m_coefficient(n - 1, tuple(x - 1 + (s == t) for s, x in enumerate(p, start=1)))
        for t in range(1, k + 1)
    )
    return Fraction(hits, total)


@dataclass(frozen=True)
class PuzzleReport:
    n: int
    k: int
    p: tuple[int, ...]
    tree: Fraction
    r1: Fraction
    equal: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "p": list(self.p),
            "tree_probability": ratio(self.tree),
            "r1_probability": ratio(self.r1),
            "equal": self.equal,
        }


def verify_puzzle(
    n: int, k: int, p: Sequence[int], cap: Optional[int] = None
) -> PuzzleReport:
    tree = tree_probability(n, k, p, cap)
    r1 = r1_probability(n, k, p)
    return PuzzleReport(n=n, k=k, p=tuple(p), tree=tree, r1=r1, equal=tree == r1)


# ---------------------------------------------------------------------------
# Containment events
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _count_with_supersets(
    n: int, k: int, p: tuple[int, ...], unions: tuple[frozenset[int], ...]
) -> int:
    """Subset tuples of type p whose first len(unions) entries contain the
    given sets.  Positions are exchangeable, so callers may sort ``unions``."""
    if len(unions) > n:
        return 0

    subsets = strict_subsets(k)

    def rec(idx: int, counts: tuple[int, ...]) -> int:
        if any(c < 0 for c in counts):
            return 0
        if idx == len(unions):
            return m_coefficient(n - len(unions), counts)
        total = 0
        for s in subsets:
            if unions[idx] <= s:
                total += rec(
                    idx + 1,
                    tuple(
                        c - (1 if t in s else 0) for t, c in enumerate(counts, start=1)
                    ),
                )
        return total

    return rec(0, p)


def _set_partitions(items: Sequence[int]):
    """Every set partition of ``items``, each a list of blocks."""
    if not items:
        yield []
        return
    first = items[0]
    for rest in _set_partitions(items[1:]):
        yield [[first], *rest]
        for i, block in enumerate(rest):
            yield [*rest[:i], [first, *block], *rest[i + 1:]]


def _event_hits(
    constraints: Sequence[frozenset[int]], n: int, k: int, p: tuple[int, ...]
) -> int:
    """The pairs (index tuple in [n]^m, subset tuple of type p) with A_s
    contained in R_{i_s} for all s, m = len(constraints).

    The count for an index tuple depends only on which slots share an
    index, so it is summed over the set partitions of the slots, each
    weighted by the n(n-1)...(n-b+1) index tuples with that pattern of b
    distinct indices, rather than over all n^m index tuples.
    """
    hits = 0
    for blocks in _set_partitions(range(len(constraints))):
        unions = tuple(
            sorted(
                (frozenset().union(*(constraints[s] for s in block)) for block in blocks),
                key=sorted,
            )
        )
        hits += perm(n, len(blocks)) * _count_with_supersets(n, k, p, unions)
    return hits


def event_probability(
    constraints: Sequence[frozenset[int] | set[int]],
    n: int,
    k: int,
    p: Sequence[int],
) -> Fraction:
    """P(A_s is contained in R_{i_s} for all s) with i.i.d. uniform indices:
    :func:`_event_hits` over the n^m M^n_p equally likely pairs."""
    _check_size(n, k, p, n_min=1, k_min=1, p_min=0)
    constraints = [frozenset(a) for a in constraints]
    m = len(constraints)
    if m > k - 1:
        raise ValueError("at most k-1 index slots")
    p = tuple(p)
    total = _type_total(n, p)
    return Fraction(_event_hits(constraints, n, k, p), n**m * total)


# the nine signed events P(A in R_i, B in R_j) of the k=3 inclusion-exclusion
_K3_TERMS = tuple(
    (sign, (frozenset(a), frozenset(b)))
    for sign, a, b in (
        (1, {1}, {2}),
        (1, {1}, {3}),
        (1, {2}, {3}),
        (-1, {1}, {2, 3}),
        (-1, {2}, {1, 3}),
        (-1, {3}, {1, 2}),
        (1, {1, 2}, {1, 3}),
        (1, {1, 2}, {2, 3}),
        (1, {1, 3}, {2, 3}),
    )
)


def verify_k3_inclusion_exclusion(n: int, p: Sequence[int]) -> CheckReport:
    """Nine-term alternating sum for k=3 against the direct tree probability.

    The nine events share the n^2 M^n_p equally likely pairs, so their
    signed hit counts are summed as integers and divided once.
    """
    k = 3
    _check_size(n, k, p, n_min=1, k_min=1, p_min=0)
    p = tuple(p)
    total = _type_total(n, p)
    hits = sum(sign * _event_hits(pair, n, k, p) for sign, pair in _K3_TERMS)
    rhs = Fraction(hits, n**2 * total)
    lhs = tree_probability(n, k, p)
    return CheckReport(
        name="k3-inclusion-exclusion",
        lhs=ratio(lhs),
        rhs=ratio(rhs),
        equal=lhs == rhs,
        params=(("n", n), ("p", p)),
    )


def verify_exchange_lemma(
    n: int, p: Sequence[int], a: int, b: int, c: int
) -> CheckReport:
    """Four-term exchange identity for k=3, plus the underlying event counts.

    The three right-side events are counted as integers over the left
    side's n^2 M^n_p pairs.  Also checks |E1| = |E2| directly, where E1
    requires a in R_i, c not in R_i, b in R_j, and E2 requires a,b in R_i,
    c not in R_i, R_j != {a,c}.  The conditions on i and on j are
    independent, so each subset tuple adds the product of its two position
    counts.
    """
    if {a, b, c} != {1, 2, 3}:
        raise ValueError("(a, b, c) must be a labelling of {1, 2, 3}")
    k = 3
    p = tuple(p)
    lhs = event_probability([{a, b}, set()], n, k, p)
    h1 = _event_hits((frozenset({a}), frozenset({b})), n, k, p)
    h2 = _event_hits((frozenset({a, c}), frozenset({b})), n, k, p)
    h3 = _event_hits((frozenset({a, b}), frozenset({a, c})), n, k, p)
    rhs = Fraction(h1 - h2 + h3, n**2 * m_coefficient(n, p))
    # per mask of R: whether R can be R_i of E1, R_j of E1, R_i of E2, R_j of E2
    bit_a, bit_b, bit_c = (1 << (x - 1) for x in (a, b, c))
    masks = range(2**k - 1)
    i1 = [bool(m & bit_a and not m & bit_c) for m in masks]
    j1 = [bool(m & bit_b) for m in masks]
    i2 = [bool(m & bit_a and m & bit_b and not m & bit_c) for m in masks]
    j2 = [m != bit_a | bit_c for m in masks]
    e1 = e2 = 0
    for tup in _mask_tuples(n, k, p, None):
        e1 += sum(map(i1.__getitem__, tup)) * sum(map(j1.__getitem__, tup))
        e2 += sum(map(i2.__getitem__, tup)) * sum(map(j2.__getitem__, tup))
    return CheckReport(
        name="exchange-lemma",
        lhs=ratio(lhs),
        rhs=ratio(rhs),
        equal=lhs == rhs and e1 == e2,
        params=(("n", n), ("p", p), ("abc", (a, b, c)), ("E1", e1), ("E2", e2)),
    )


# ---------------------------------------------------------------------------
# Monte Carlo (beyond exhaustive range)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleResult:
    n: int
    k: int
    p: tuple[int, ...]
    trials: int
    accepted: int
    tree_hits: int
    r1_hits: int
    seed: int

    @property
    def tree_estimate(self) -> Fraction:
        return Fraction(self.tree_hits, self.accepted)

    @property
    def r1_estimate(self) -> Fraction:
        return Fraction(self.r1_hits, self.accepted)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "p": list(self.p),
            "trials": self.trials,
            "accepted": self.accepted,
            "tree_estimate": ratio(self.tree_estimate),
            "r1_estimate": ratio(self.r1_estimate),
            "seed": self.seed,
        }


def _next_subset_weights(left: int, q: tuple[int, ...], k: int) -> list[int]:
    """Weight of each strict subset S of [k], indexed by its mask, as the
    next entry of a tuple of type q with ``left`` entries still to draw:
    M^(left-1)_(q - 1_S), the number of ways to finish the tuple after S.
    The weights sum to M^left_q, so drawing every entry by them makes each
    tuple of type q equally likely.

    All 2^k - 1 weights come from one binomial expansion of
    :func:`m_coefficient`'s closed form, with N = left - 1: for each j up to
    min(N, min q), (-1)^j C(N, j) times, per type t, C(N-j, q_t-j) when t is
    not in S and C(N-j, q_t-1-j) when it is.  The products for every S are
    built at once by doubling a list once per type, so the index of S is
    its mask, as in :func:`strict_subsets`.
    """
    n = left - 1
    weights = [0] * (2**k - 1)
    for j in range(min(n, *q) + 1):
        prods = [(-1) ** j * comb(n, j)]
        for x in q:
            out = comb(n - j, x - j)
            into = comb(n - j, x - 1 - j) if x > j else 0
            prods = [w * out for w in prods] + [w * into for w in prods]
        # the last product is S = [k], which is not strict
        weights = [w + v for w, v in zip(weights, prods)]
    return weights


class _SamplerState(NamedTuple):
    """A state of the sequential draw: ``left`` entries of type ``q`` still
    to draw.  ``cum`` holds the cumulative weights of the next entry by mask
    and ``after[mask]`` the state after that mask, None until first needed."""

    left: int
    q: tuple[int, ...]
    cum: list[int]
    after: list[Optional[_SamplerState]]


# types whose draw states are kept: calls that alternate between a few types
# reuse them, and a loop over many types holds no more than this many
_SAMPLED_TYPES = 8


@lru_cache(maxsize=_SAMPLED_TYPES)
def _sampler_states(n: int, k: int, p: tuple[int, ...]) -> dict:
    """The draw states of type p met so far, by (entries left, type left),
    for the last _SAMPLED_TYPES types sampled.  A type holds at most the
    states reachable in its first min(n, k) - 1 entries."""
    return {}


def _sampler_state(states: dict, left: int, q: tuple[int, ...]) -> _SamplerState:
    """The state (left, q) from ``states``, built and stored when missing."""
    state = states.get((left, q))
    if state is None:
        cum = list(itertools.accumulate(_next_subset_weights(left, q, len(q))))
        state = states[left, q] = _SamplerState(left, q, cum, [None] * len(cum))
    return state


def _successor(states: dict, state: _SamplerState, mask: int) -> _SamplerState:
    """The state after ``mask``, found or built once and linked in ``after``."""
    q = tuple(c - (mask >> t & 1) for t, c in enumerate(state.q))
    nxt = state.after[mask] = _sampler_state(states, state.left - 1, q)
    return nxt


# bits per getrandbits call in _count_below, bounding its memory; a multiple
# of 32, so that splitting a step's bits into calls leaves the stream as it is
_CHUNK = 1 << 18


def _count_below(rng: random.Random, trials: int, num: int, den: int) -> int:
    """How many of ``trials`` uniform reals on [0, 1) are below num / den,
    for 0 <= num <= den.

    The reals are compared with num / den one binary digit at a time
    (Knuth-Yao): each step draws one bit per undecided trial, at most _CHUNK
    bits per getrandbits call, and one bit count splits them.  At a digit 1
    the trials drawing 0 are below; at a digit 0 those drawing 1 are above.
    Half the trials are decided per step, so about two bits per trial.
    """
    below, rem = 0, num
    while trials:
        rem *= 2
        ones = sum(
            rng.getrandbits(min(_CHUNK, trials - i)).bit_count() for i in range(0, trials, _CHUNK)
        )
        if rem >= den:
            rem -= den
            below += trials - ones
            trials = ones
        else:
            trials -= ones
    return below


def sample_puzzle(
    n: int,
    k: int,
    p: Sequence[int],
    trials: int,
    seed: Optional[int] = None,
) -> SampleResult:
    """Exact-in-law estimates of both puzzle probabilities.

    The result has the law of rejection sampling: ``trials`` tuples of
    strict subsets drawn i.i.d. uniform, those of type p accepted.  Without
    drawing the rejected tuples, ``accepted`` counts the trials whose
    uniform real on [0, 1) falls below M^n_p / (2^k - 1)^n, compared digit
    by digit (Knuth-Yao) in :func:`_count_below`.  For each accepted
    tuple R only the entries the two events read are drawn: the k-1 indices
    come first, the distinct positions of (1, i_1, ..., i_{k-1}) are
    renumbered 1..b in order of first appearance, and the first b <= min(n, k)
    entries of a uniform tuple of type p are drawn entry by entry with the
    weights of :func:`_next_subset_weights` (Nijenhuis-Wilf).  The indices are
    independent of R and the uniform law on tuples of type p does not change
    when positions are permuted, so (R_1, R_{i_1}, ...) has the law of the
    renumbered prefix, and the law of the result is that of drawing all n
    entries.  Entries are drawn as masks: each state (entries left, type
    left) met keeps its cumulative weights and, once reached, the state
    after each mask.  :func:`_sampler_states` keeps the states of the last
    _SAMPLED_TYPES types sampled in the process, so calls repeated on one
    type run a state's binomial expansion once; the first state's total is
    checked against M^n_p on every call.
    The tree test reads the successor map of the drawn prefix in the
    per-process memo that :func:`tree_probability` fills.  The generator is
    seeded with the first 64 bits drawn from ``Random(seed)``, with None
    read as 0, so results depend only on the arguments; since the indices
    are drawn first and fewer entries follow, a given seed gives other
    counts than a draw of all n entries would.
    Raises ValueError before drawing anything when k, n or trials is below 1,
    p is not a type vector of length k, or seed is negative (``Random``
    would seed with its absolute value, so -3 would repeat the draws of 3),
    and SamplingError, also a ValueError, when no trial is accepted.
    """
    _check_size(n, k, p, n_min=1, k_min=1, p_min=0)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    p = tuple(p)
    if seed is None:
        seed = 0
    rng = random.Random(random.Random(seed).getrandbits(64))
    randrange = rng.randrange
    num, den = m_coefficient(n, p), (2**k - 1) ** n
    accepted = _count_below(rng, trials, num, den)
    if accepted == 0:
        raise SamplingError(
            f"no trial of {trials} accepted; a uniform subset tuple has type {p} "
            f"with probability {ratio(Fraction(num, den))} at n={n}, k={k} (SamplingError)"
        )
    states = _sampler_states(n, k, p)
    first = _sampler_state(states, n, p)
    if first.cum[-1] != num:
        raise AssertionError(
            f"the first entry's weights sum to {first.cum[-1]}, not M^{n}_{p} = {num}"
        )
    successors = _successor_rows(k)
    tree_hits = r1_hits = 0
    for _ in range(accepted):
        # positions 1, i_1, ..., i_{k-1} renumbered 1..b by first appearance
        pos = {1: 1}
        indices = [pos.setdefault(randrange(1, n + 1), len(pos) + 1) for _ in range(k - 1)]
        state, masks = first, []
        for j in range(len(pos)):
            if j:
                state = state.after[mask] or _successor(states, state, mask)
            cum = state.cum
            mask = bisect_right(cum, randrange(cum[-1]))
            masks.append(mask)
        f = tuple(successors[masks[i - 1]][t] for t, i in enumerate(indices))
        if _is_tree_map(k, f):
            tree_hits += 1
        if masks[0].bit_count() == k - 1:
            r1_hits += 1
    return SampleResult(
        n=n,
        k=k,
        p=p,
        trials=trials,
        accepted=accepted,
        tree_hits=tree_hits,
        r1_hits=r1_hits,
        seed=seed,
    )
