"""Critical configurations of the chip-firing game with a designated sink.

The H-vector of the cographic matroid counts critical configurations by the
degree of their associated monomials, which gives a route to H that is
independent of the F-vector transform.  Recurrence is decided by the
burning criterion (``_critical_rows``); ``recurrent_by_firing_search`` is an
independent oracle that follows the definition.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .errors import GuardExceededError, InputError
from .multigraph import Multigraph, is_connected
from .reliability import HVector

DEFAULT_STATE_GUARD = 1 << 24
# Stable configurations burned per vectorized pass of _critical_rows.  Each
# takes 26 bytes per non-sink vertex (chips, the float ready mask and the
# product in float64; the unfired and ready masks in bytes), so the arrays
# of a 12-vertex graph's chunk take about 1.2 MB, which stays in cache,
# however many states the guard admits.
_CHUNK_STATES = 1 << 12


@dataclass(frozen=True)
class Configuration:
    """Chip counts per vertex; the sink holds minus the total of the others."""

    theta: tuple[int, ...]
    sink: int


@dataclass(frozen=True)
class CriticalMonomial:
    """Exponent of x_v is deg(v)-1-theta(v) for v != sink (0 at the sink slot)."""

    exponents: tuple[int, ...]
    sink: int

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def support(self) -> int:
        """Number of variables dividing the monomial."""
        return sum(1 for e in self.exponents if e > 0)

    def divides(self, other: "CriticalMonomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))


def _validate(g: Multigraph, sink: int) -> None:
    if g.n < 2:
        raise InputError("chip firing needs at least two vertices")
    if not (0 <= sink < g.n):
        raise InputError(f"sink {sink} outside 0..{g.n - 1}")
    if not is_connected(g):
        raise InputError("chip firing requires a connected graph")


def _stable_space(g: Multigraph, sink: int,
                  state_guard: int) -> tuple[list[int], list[int], int]:
    """Degrees, non-sink vertices and the number of stable configurations.

    Validates the input and raises :class:`GuardExceededError` when the
    stable configurations, prod_{v != sink} deg(v), exceed the guard.
    """
    _validate(g, sink)
    degrees = g.degrees()
    others = [v for v in range(g.n) if v != sink]
    states = math.prod(degrees[v] for v in others)
    if states > state_guard:
        raise GuardExceededError(f"{states} stable configurations exceed the guard {state_guard}")
    return degrees, others, states


def _mult_matrix(g: Multigraph) -> list[list[int]]:
    lam = [[0] * g.n for _ in range(g.n)]
    for u, v, mult in g.edges:
        lam[u][v] = mult
        lam[v][u] = mult
    return lam


def _critical_rows(g: Multigraph, sink: int, degrees: list[int], others: list[int],
                   states: int) -> Iterator[np.ndarray]:
    """Critical configurations, chunk by chunk, as int64 rows of chip counts
    on the non-sink vertices ``others`` (the stable space from ``_stable_space``).

    Scans the product space prod_v {0..deg(v)-1} of stable configurations
    in the order of ``itertools.product`` (C order: state i holds
    i // stride(v) % deg(v) chips at v, for the mixed-radix strides of the
    degrees) and applies the burning criterion: fire the sink once and
    require the cascade to fire every other vertex exactly once.  Each
    chunk burns simultaneously, one synchronous firing round per BLAS
    product ``transfer @ ready`` (the abelian property makes the firing
    order irrelevant).  A chunk holds one row per vertex, so the final
    test for "every vertex fired" reduces over contiguous rows.

    The rounds run in float64 and are exact.  A vertex fires at most once,
    so its chip count stays in [0, 2·deg(v)), and a partial sum of a product
    is a sum of distinct entries of one row of ``transfer``, in
    [-deg(v), deg(v)].  So every operand, product and partial sum is an
    integer of magnitude at most 2·(largest non-sink degree) <= 2·states,
    far below 2^53, and BLAS returns the exact integer in any summation
    order.
    """
    import numpy as np

    k = len(others)
    deg = np.array([[degrees[v]] for v in others], dtype=np.float64)
    lam = _mult_matrix(g)
    sink_col = np.array([[lam[sink][v]] for v in others], dtype=np.float64)
    # transfer[i, j]: chips others[i] gains when others[j] fires.
    transfer = np.array([[lam[u][v] for u in others] for v in others],
                        dtype=np.float64) - np.diagflat(deg)
    strides = [math.prod(degrees[w] for w in others[i + 1:]) for i in range(k)]
    size = min(_CHUNK_STATES, states)
    # The arrays are allocated once and written through out=, so a round
    # allocates nothing: arrays this size can go back to the operating system
    # when freed, and with a fresh ready.astype(...) per round the page
    # faults doubled the time of a burn.
    chips, ready_f, gained = (np.empty((k, size)) for _ in range(3))
    unfired, ready = (np.empty((k, size), dtype=bool) for _ in range(2))
    for start in range(0, states, size):
        index = np.arange(start, min(start + size, states), dtype=np.int64)
        c, rf, p, u, r = (a[:, :len(index)] for a in (chips, ready_f, gained, unfired, ready))
        for i, v in enumerate(others):
            c[i] = index // strides[i] % degrees[v]
        c += sink_col
        u[...] = True
        while True:
            np.greater_equal(c, deg, out=r)
            r &= u
            if not r.any():
                break
            rf[...] = r
            c += np.matmul(transfer, rf, out=p)
            u ^= r  # clears the vertices that fired: r lies inside u
        # Once every vertex has fired (the sink too), each has given away
        # its degree and received it back, so c holds the configuration again.
        yield c[:, ~u.any(axis=0)].T.astype(np.int64)


def critical_configs(g: Multigraph, sink: int,
                     state_guard: int = DEFAULT_STATE_GUARD) -> list[Configuration]:
    """All critical (stable and recurrent) configurations with the given sink.

    Exponential in n, intended for gadget-sized graphs.
    """
    degrees, others, states = _stable_space(g, sink, state_guard)
    out: list[Configuration] = []
    for rows in _critical_rows(g, sink, degrees, others, states):
        for values in rows.tolist():
            theta = [0] * g.n
            for v, val in zip(others, values):
                theta[v] = val
            theta[sink] = -sum(values)
            out.append(Configuration(theta=tuple(theta), sink=sink))
    return out


def monomials_of(configs: list[Configuration], g: Multigraph) -> list[CriticalMonomial]:
    degrees = g.degrees()
    out = []
    for cfg in configs:
        expo = tuple(0 if v == cfg.sink else degrees[v] - 1 - cfg.theta[v]
                     for v in range(g.n))
        out.append(CriticalMonomial(exponents=expo, sink=cfg.sink))
    return out


def h_vector_chip(g: Multigraph, sink: int,
                  state_guard: int = DEFAULT_STATE_GUARD) -> HVector:
    """H-vector from the chip-firing game: H_i = number of critical monomials of degree i.

    The degree counts of each chunk of critical configurations add up
    across chunks.
    """
    import numpy as np

    degrees, others, states = _stable_space(g, sink, state_guard)
    # The monomial of a critical row has exponents deg(v) - 1 - theta(v).
    max_expo = np.array([degrees[v] - 1 for v in others], dtype=np.int32)
    top = g.m - g.n + 1
    counts = np.zeros(top + 1, dtype=np.int64)
    for rows in _critical_rows(g, sink, degrees, others, states):
        chunk_counts = np.bincount((max_expo - rows).sum(axis=1, dtype=np.int64),
                                   minlength=top + 1)
        if len(chunk_counts) > top + 1:
            raise InputError("monomial degree exceeded m-n+1; inconsistent input graph")
        counts += chunk_counts
    return HVector(values=tuple(int(c) for c in counts), n=g.n, m=g.m)


def recurrent_by_firing_search(g: Multigraph, theta: Configuration,
                               state_guard: int = DEFAULT_STATE_GUARD) -> bool:
    """Definition-faithful recurrence test: breadth-first search over legal
    firing sequences looking for a nontrivial return to ``theta``.

    A non-sink vertex is ready when it holds at least deg(v) chips; the sink
    is ready only when nothing else is.  Reachable chip totals are bounded,
    so the search space is finite.  Exponential; for cross-checking the
    burning criterion on tiny graphs.
    """
    _validate(g, theta.sink)
    degrees = g.degrees()
    lam = _mult_matrix(g)
    sink = theta.sink
    others = [v for v in range(g.n) if v != sink]
    start = tuple(theta.theta[v] for v in others)

    def successors(state: tuple[int, ...]) -> list[tuple[int, ...]]:
        ready = [i for i, v in enumerate(others) if state[i] >= degrees[v]]
        nxt = []
        if ready:
            for i in ready:
                u = others[i]
                new = list(state)
                new[i] -= degrees[u]
                for j, v in enumerate(others):
                    if v != u:
                        new[j] += lam[u][v]
                nxt.append(tuple(new))
        else:
            new = list(state)
            for j, v in enumerate(others):
                new[j] += lam[sink][v]
            nxt.append(tuple(new))
        return nxt

    seen = {start}
    frontier = deque(successors(start))
    visited = 0
    while frontier:
        state = frontier.popleft()
        if state == start:
            return True
        if state in seen:
            continue
        seen.add(state)
        visited += 1
        if visited > state_guard:
            raise GuardExceededError("firing-sequence search exceeded the state guard")
        frontier.extend(successors(state))
    return False


@dataclass
class IdealReport:
    """Outcome of the order-ideal structure checks on a set of critical monomials."""

    closed_under_division: bool
    pure: bool
    top_degree: int
    expected_top_degree: int
    support_bound_applies: bool
    support_bound_holds: bool
    max_support: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return (self.closed_under_division and self.pure
                and self.top_degree == self.expected_top_degree
                and (self.support_bound_holds or not self.support_bound_applies))


def ideal_check(monomials: list[CriticalMonomial], g: Multigraph) -> IdealReport:
    """Check that the critical monomials form a pure order ideal.

    Verifies (a) closure under division, (b) that all maximal monomials have
    degree m-n+1, and (c) when the sink has no incident multiple edges and
    n >= 3, that every monomial is divisible by at most n-2 variables.
    """
    violations: list[str] = []
    expo_set = {mono.exponents for mono in monomials}
    n = g.n
    m = g.m
    sink = monomials[0].sink if monomials else 0

    closed = True
    for mono in monomials:
        for v, e in enumerate(mono.exponents):
            if e > 0:
                lower = list(mono.exponents)
                lower[v] -= 1
                if tuple(lower) not in expo_set:
                    closed = False
                    violations.append(f"divisor of {mono.exponents} at x_{v} missing")

    top = max((mono.degree for mono in monomials), default=0)
    pure = True
    for mono in monomials:
        is_maximal = not any(
            mono.exponents != other and all(a <= b for a, b in zip(mono.exponents, other))
            for other in expo_set)
        if is_maximal and mono.degree != m - n + 1:
            pure = False
            violations.append(f"maximal monomial {mono.exponents} has degree {mono.degree}")

    sink_simple = all(mult == 1 for u, v, mult in g.edges if sink in (u, v))
    applies = sink_simple and n >= 3
    max_support = max((mono.support() for mono in monomials), default=0)
    support_ok = max_support <= n - 2 if applies else True
    if applies and not support_ok:
        violations.append(f"monomial with support {max_support} > n-2 = {n - 2}")

    return IdealReport(
        closed_under_division=closed,
        pure=pure,
        top_degree=top,
        expected_top_degree=m - n + 1,
        support_bound_applies=applies,
        support_bound_holds=support_ok,
        max_support=max_support,
        violations=violations,
    )
