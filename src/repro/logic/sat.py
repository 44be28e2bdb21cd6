"""A small DPLL SAT solver with two-watched-literal unit propagation.

Written from scratch for the oracle-guided SAT attack on the digital
locking baselines.  It is a classic iterative DPLL with a static
branching order (most-occurring variables first), ``True`` tried
first, and chronological backtracking that flips the last decision.
:class:`SatSolver` propagates through two watched positions per
clause; :func:`reference_solve` is the original loop that re-scans
every clause until nothing changes.  Tests hold the two equal;
nothing in the package calls the reference.

Exactness: on every input the two return the same satisfiability,
the same decision count and the same model.

- Watch clause *positions* and keep duplicate literals.  The
  reference counts unassigned occurrences, so ``(1, 1)`` is never
  unit: it is satisfied or falsified whole.  A clause is unit only
  when exactly one position is unassigned and none is true, and a
  clause with two non-false watched positions is neither unit nor
  falsified, whatever its other positions hold.
- Same branching.  The order is occurrence count descending, ties by
  variable index (a stable sort); decisions assign ``True``.  On a
  conflict the trail pops to the last decision, which is flipped as a
  forced value; with no decision left the CNF is UNSAT.  Every
  variable ranked before a decision was assigned below it, so popping
  to a decision resets the first-free pointer to that decision's rank
  and finds the variable the reference's linear scan finds.
- Propagate only the new literal.  A decision is taken only when the
  trail is a complete closure, and backtracking restores exactly such
  a trail, so after a decision or a flip only the new literal needs
  propagating.  Unit propagation reaches a conflict under every visit
  order or under none, and without a conflict its closure is unique;
  a conflict is undone whole by popping to the last decision.  So the
  search tree, the decisions and the model are the reference's.
- Same edge behaviour.  An empty clause gives UNSAT with 0 decisions,
  unit clauses are applied at the root, an out-of-range literal raises
  ``ValueError`` at construction, and ``RuntimeError`` is raised once
  ``decisions > max_decisions``.
- The model holds the same values.  Its insertion order is by
  variable here and by assignment in the reference; ``SatResult``
  equality and ``.get`` lookups ignore order, and anything that
  iterates a model must sort it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SatResult:
    """Solver outcome.

    Attributes:
        satisfiable: Whether a model exists.
        assignment: A satisfying assignment (variable -> bool) when
            satisfiable; empty otherwise.
        decisions: Number of branching decisions taken.
    """

    satisfiable: bool
    assignment: dict[int, bool] = field(default_factory=dict)
    decisions: int = 0


def _checked(n_vars: int, clauses: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The clauses as tuples; ``ValueError`` on an out-of-range literal."""
    clauses = [tuple(c) for c in clauses]
    for clause in clauses:
        for lit in clause:
            if lit == 0 or abs(lit) > n_vars:
                raise ValueError(f"literal {lit} out of range")
    return clauses


class SatSolver:
    """DPLL over a fixed clause list."""

    def __init__(self, n_vars: int, clauses: list[tuple[int, ...]]):
        self.n_vars = n_vars
        self.clauses = _checked(n_vars, clauses)

    def solve(self, max_decisions: int = 2_000_000) -> SatResult:
        """Run DPLL; raises RuntimeError past ``max_decisions``."""
        n = self.n_vars
        # value[lit] is 1 (true), -1 (false) or 0 (unassigned), and
        # watches[lit] holds the clauses watching a position that holds
        # ``lit``.  Both have 2n + 1 slots, so a negative literal -v
        # indexes slot 2n + 1 - v, clear of every positive one.
        value = [0] * (2 * n + 1)
        watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
        occurrences = [0] * (n + 1)
        units = []
        for clause in self.clauses:
            for lit in clause:
                occurrences[abs(lit)] += 1
            if len(clause) > 1:
                # Positions 0 and 1 are the watched ones.
                watched = list(clause)
                watches[watched[0]].append(watched)
                watches[watched[1]].append(watched)
            elif clause:
                units.append(clause[0])
            else:
                return SatResult(satisfiable=False)
        order = sorted(range(1, n + 1), key=lambda v: -occurrences[v])

        trail: list[int] = []  # assigned literals, oldest first

        def propagate(head: int) -> bool:
            """Propagate ``trail[head:]`` to closure; False on conflict."""
            while head < len(trail):
                false_lit = -trail[head]
                head += 1
                watching = watches[false_lit]
                kept = []
                for i, clause in enumerate(watching):
                    # Move the falsified watch to position 1.
                    if clause[0] == false_lit:
                        clause[0] = clause[1]
                        clause[1] = false_lit
                    other = clause[0]
                    if value[other] == 1:
                        kept.append(clause)
                        continue
                    for k in range(2, len(clause)):
                        lit = clause[k]
                        if value[lit] != -1:
                            clause[1] = lit
                            clause[k] = false_lit
                            watches[lit].append(clause)
                            break
                    else:
                        # Every position but ``other`` is false.
                        kept.append(clause)
                        if value[other] == -1:
                            kept.extend(watching[i + 1:])
                            watches[false_lit] = kept
                            return False
                        value[other] = 1
                        value[-other] = -1
                        trail.append(other)
                watches[false_lit] = kept
            return True

        for lit in units:
            if value[lit] == -1:
                return SatResult(satisfiable=False)
            if not value[lit]:
                value[lit] = 1
                value[-lit] = -1
                trail.append(lit)
        if not propagate(0):
            return SatResult(satisfiable=False)

        open_decisions: list[tuple[int, int]] = []  # (trail index, rank)
        rank = 0  # every variable ranked below this one is assigned
        decisions = 0
        while True:
            while rank < n and value[order[rank]]:
                rank += 1
            if rank == n:
                return SatResult(
                    satisfiable=True,
                    assignment={v: value[v] == 1 for v in range(1, n + 1)},
                    decisions=decisions,
                )
            decisions += 1
            if decisions > max_decisions:
                raise RuntimeError(f"decision budget exceeded ({max_decisions})")
            open_decisions.append((len(trail), rank))
            lit = order[rank]
            while True:
                head = len(trail)
                value[lit] = 1
                value[-lit] = -1
                trail.append(lit)
                if propagate(head):
                    break
                if not open_decisions:
                    return SatResult(satisfiable=False, decisions=decisions)
                # Pop to the last decision and flip it as a forced value.
                head, rank = open_decisions.pop()
                lit = -trail[head]
                for undone in trail[head:]:
                    value[undone] = 0
                    value[-undone] = 0
                del trail[head:]


def reference_solve(
    n_vars: int, clauses: list[tuple[int, ...]], max_decisions: int = 2_000_000
) -> SatResult:
    """The original clause-scanning DPLL: the exactness oracle that
    tests hold :class:`SatSolver` to.  Quadratic; nothing in the
    package calls it."""
    clauses = _checked(n_vars, clauses)
    # Occurrence lists: variable -> clause indices.
    occurs: dict[int, list[int]] = {v: [] for v in range(1, n_vars + 1)}
    for idx, clause in enumerate(clauses):
        for lit in clause:
            occurs[abs(lit)].append(idx)

    assignment: dict[int, bool] = {}
    trail: list[tuple[int, bool]] = []  # (var, was_decision)
    decisions = 0

    def value(lit: int) -> bool | None:
        v = assignment.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def assign(lit: int, is_decision: bool) -> None:
        assignment[abs(lit)] = lit > 0
        trail.append((abs(lit), is_decision))

    def propagate() -> bool:
        """Unit propagation to fixpoint; False on conflict."""
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                unassigned = None
                n_unassigned = 0
                satisfied = False
                for lit in clause:
                    v = value(lit)
                    if v is True:
                        satisfied = True
                        break
                    if v is None:
                        unassigned = lit
                        n_unassigned += 1
                if satisfied:
                    continue
                if n_unassigned == 0:
                    return False
                if n_unassigned == 1:
                    assign(unassigned, is_decision=False)
                    changed = True
        return True

    def backtrack() -> bool:
        """Undo to the last decision and flip it; False if none left."""
        while trail:
            var, was_decision = trail.pop()
            val = assignment.pop(var)
            if was_decision:
                # Flip: re-assign as a forced (non-decision) value.
                assign(var if not val else -var, is_decision=False)
                return True
        return False

    # Static branching order: most-occurring variables first.
    order = sorted(
        range(1, n_vars + 1),
        key=lambda v: -len(occurs[v]),
    )

    while True:
        if not propagate():
            if not backtrack():
                return SatResult(satisfiable=False, decisions=decisions)
            continue
        free = next((v for v in order if v not in assignment), None)
        if free is None:
            return SatResult(
                satisfiable=True, assignment=dict(assignment), decisions=decisions
            )
        decisions += 1
        if decisions > max_decisions:
            raise RuntimeError(f"decision budget exceeded ({max_decisions})")
        assign(free, is_decision=True)


def solve_cnf(n_vars: int, clauses: list[tuple[int, ...]], max_decisions: int = 2_000_000) -> SatResult:
    """One-shot convenience wrapper around :class:`SatSolver`."""
    return SatSolver(n_vars, clauses).solve(max_decisions)
