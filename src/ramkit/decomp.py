"""Birkhoff-von Neumann decomposition and deterministic efficiency.

A bistochastic matrix is written as a convex combination of permutation
matrices by repeatedly extracting a perfect matching from the support of
the positive entries and subtracting the minimum matched entry.  With
exact rationals the loop terminates at the zero matrix, recombination is
bit-exact, and the classical term bound (n-1)**2 + 1 holds.

Matchings are found with augmenting paths, scanning vertices in index
order, so the term sequence is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ONE,
    ZERO,
    AssignmentMatrix,
    Profile,
    _as_exact,
    prefers,
    validate_assignment,
)

DeterministicAssignment = tuple[int, ...]  # agent -> object, bijective


def term_bound(n: int) -> int:
    return (n - 1) ** 2 + 1


def validate_deterministic(perm, n: int) -> DeterministicAssignment:
    t = tuple(perm)
    if len(t) != n or sorted(t) != list(range(n)):
        raise ValueError(f"not a bijection agent->object: {t}")
    return t


@dataclass(frozen=True)
class Decomposition:
    """Convex combination of distinct deterministic assignments."""

    terms: tuple[tuple[Fraction, DeterministicAssignment], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("decomposition needs at least one term")
        n = len(self.terms[0][1])
        total = ZERO
        seen = set()
        cleaned = []
        for weight, perm in self.terms:
            weight = _as_exact(weight, "weight")
            if weight <= 0:
                raise ValueError(f"weight {weight} must be positive")
            perm = validate_deterministic(perm, n)
            if perm in seen:
                raise ValueError(f"duplicate component {perm}")
            seen.add(perm)
            total += weight
            cleaned.append((weight, perm))
        if total != ONE:
            raise ValueError(f"weights sum to {total}, expected exactly 1")
        if len(cleaned) > term_bound(n):
            raise ValueError(
                f"{len(cleaned)} terms exceeds the bound {term_bound(n)} for n={n}"
            )
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def n(self) -> int:
        return len(self.terms[0][1])


def _perfect_matching(positive: list[list[bool]], n: int) -> list[int]:
    """Row -> column perfect matching on the support, via augmenting paths.

    Rows are processed and columns scanned in index order.  On bistochastic
    support a perfect matching always exists (Hall's condition), so failure
    signals internal arithmetic corruption.
    """
    match_col = [-1] * n  # column -> row

    def augment(row: int, visited: list[bool]) -> bool:
        for col in range(n):
            if positive[row][col] and not visited[col]:
                visited[col] = True
                if match_col[col] < 0 or augment(match_col[col], visited):
                    match_col[col] = row
                    return True
        return False

    for row in range(n):
        if not augment(row, [False] * n):
            raise AssertionError(
                "no perfect matching on a bistochastic support; arithmetic error"
            )
    out = [0] * n
    for col, row in enumerate(match_col):
        out[row] = col
    return out


def birkhoff_decompose(matrix: AssignmentMatrix) -> Decomposition:
    """Decompose a validated bistochastic matrix into permutation terms."""
    checked = validate_assignment(matrix)
    n = len(checked)
    work = [list(row) for row in checked]
    terms: list[tuple[Fraction, DeterministicAssignment]] = []
    remaining = ONE
    while remaining > 0:
        positive = [[x > 0 for x in row] for row in work]
        perm = _perfect_matching(positive, n)
        weight = min(work[i][perm[i]] for i in range(n))
        for i in range(n):
            work[i][perm[i]] -= weight
        terms.append((weight, tuple(perm)))
        remaining -= weight
    if any(x != 0 for row in work for x in row):
        raise AssertionError("weights exhausted before the matrix reached zero")
    return Decomposition(tuple(terms))


def recombine(decomposition: Decomposition) -> AssignmentMatrix:
    """Exact weighted sum of the permutation matrices; always bistochastic."""
    n = decomposition.n
    acc = [[ZERO] * n for _ in range(n)]
    for weight, perm in decomposition.terms:
        for i in range(n):
            acc[i][perm[i]] += weight
    return validate_assignment(acc)


def deterministic_pareto_efficient(
    perm: DeterministicAssignment, profile: Profile
) -> bool:
    """No trading cycle: the graph i -> j when i strictly prefers j's object
    to her own is acyclic (with strict preferences this is exactly Pareto
    efficiency of the deterministic assignment)."""
    return _improvement_cycle(perm, profile) is None


def _improvement_cycle(
    perm: DeterministicAssignment, profile: Profile
) -> list[int] | None:
    """An agent cycle along strict-improvement edges, or None."""
    n = len(perm)
    return find_cycle([
        [j for j in range(n) if j != i and prefers(profile[i], perm[j], perm[i])]
        for i in range(n)
    ])


def find_cycle(adj: list[list[int]]) -> list[int] | None:
    """The first cycle a depth-first search meets, starting from the nodes
    in index order and following ``adj[x]`` in its order, or None."""
    n = len(adj)
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    stack: list[int] = []

    def dfs(start: int) -> list[int] | None:
        color[start] = 1
        stack.append(start)
        for j in adj[start]:
            if color[j] == 1:
                return stack[stack.index(j):]
            if color[j] == 0:
                found = dfs(j)
                if found is not None:
                    return found
        stack.pop()
        color[start] = 2
        return None

    for i in range(n):
        if color[i] == 0:
            cycle = dfs(i)
            if cycle is not None:
                return cycle
    return None
