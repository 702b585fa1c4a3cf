"""Action systems and mutualistic-relationship checks.

Two systems stand in a mutualistic relationship when each can enact an
action whose counterpart in the other system is evaluated as beneficial
there.  Every system carries an evaluation map from its actions to the
three significance classes +1 (beneficial), 0 (insignificant) and -1
(disadvantageous).  A correspondence links actions of one system with
actions of another as a partial bijection; only linked actions take part
in any check.

Two flavours of the check are provided:

* the strict precondition additionally requires each enacted action to be
  non-negative for its own actor (no self-harm);
* the extended form drops that actor-side clause, admitting actions that
  carry a cost for the actor, such as commercial services.

A check is one search in each direction: the least linked action of one
system whose counterpart the other system rates +1.  Witnesses are
therefore deterministic: when several action pairs qualify, the
lexicographically least pair of action ids is reported.  The relation is
symmetric: on the inverted correspondence a check passes or fails alike,
its witness's actions swapped.  So the closure over many systems checks
each correspondence once, joins its two systems both ways when it passes,
and is one depth-first search from each system over that relation.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .inputs import Record

ALLOWED_EVALUATIONS = (-1, 0, 1)


class CorrespondenceMismatch(Exception):
    """Correspondence endpoints do not name the systems being checked."""


class ActionSystem(Record):
    """A named set of actions with a total evaluation map over them."""

    __slots__ = ("id", "evaluations")

    def __init__(self, id: str, evaluations: Mapping[str, int]):
        self.id, self.evaluations = id, evaluations
        for action, value in self.evaluations.items():
            if value not in ALLOWED_EVALUATIONS:
                raise ValueError(
                    f"evaluation of {action!r} must be -1, 0 or 1, got {value!r}"
                )


class ActionCorrespondence(Record):
    """A partial bijection between the action sets of two systems."""

    __slots__ = ("source", "target", "pairs")

    def __init__(self, source: str, target: str, pairs: frozenset[tuple[str, str]]):
        self.source, self.target = source, target
        self.pairs = pairs = frozenset(tuple(p) for p in pairs)
        if len({a for a, _ in pairs}) != len(pairs) or len({b for _, b in pairs}) != len(pairs):
            raise ValueError("correspondence must be injective in both coordinates")


class MutualisticWitness(NamedTuple):
    """The pair of actions certifying a relationship.

    ``forward_action`` belongs to the first system and benefits the second;
    ``backward_action`` belongs to the second system and benefits the first.
    """

    forward_action: str
    backward_action: str


def _validate(d: ActionSystem, r: ActionSystem, corr: ActionCorrespondence):
    if corr.source != d.id or corr.target != r.id:
        raise CorrespondenceMismatch(
            f"correspondence {corr.source!r} -> {corr.target!r} does not"
            f" connect {d.id!r} -> {r.id!r}"
        )
    for a, b in corr.pairs:
        if a not in d.evaluations or b not in r.evaluations:
            raise ValueError(f"correspondence pair ({a!r}, {b!r}) names unknown actions")


def _witness(
    d: ActionSystem,
    r: ActionSystem,
    corr: ActionCorrespondence,
    require_no_actor_cost: bool,
) -> MutualisticWitness | None:
    """Per direction, the least linked action of the actor whose counterpart
    the other system rates +1; the strict check skips those the actor rates -1."""
    _validate(d, r, corr)
    least = 0 if require_no_actor_cost else -1  # the least rating an actor may give
    d_rates, r_rates = d.evaluations, r.evaluations
    forward = min((a for a, b in corr.pairs if r_rates[b] > 0 and d_rates[a] >= least),
                  default=None)
    backward = min((b for a, b in corr.pairs if d_rates[a] > 0 and r_rates[b] >= least),
                   default=None)
    if forward is None or backward is None:
        return None
    return MutualisticWitness(forward, backward)


def check_precondition(
    d: ActionSystem, r: ActionSystem, corr: ActionCorrespondence
) -> MutualisticWitness | None:
    """Check the strict mutualistic precondition between two systems.

    Returns the least witness pair, or None when either direction lacks a
    qualifying action.
    """
    return _witness(d, r, corr, require_no_actor_cost=True)


def check_extended(
    d: ActionSystem, r: ActionSystem, corr: ActionCorrespondence
) -> MutualisticWitness | None:
    """Check the extended form, allowing actions costly to their actor."""
    return _witness(d, r, corr, require_no_actor_cost=False)


def mutualistic_closure(
    systems: list[ActionSystem],
    correspondences: list[ActionCorrespondence],
    extended: bool = False,
) -> set[tuple[str, str]]:
    """Reachability over pairwise mutualistic relations.

    Edges (D, R) and (R, D) are present when some listed correspondence
    between the two systems passes the chosen check, made once per
    correspondence since the relation is symmetric; the result is every
    pair of distinct systems joined by a path of such edges.
    """
    by_id = {s.id: s for s in systems}
    check = check_extended if extended else check_precondition
    successors: dict[str, set[str]] = {s.id: set() for s in systems}
    for corr in correspondences:
        if corr.source not in by_id or corr.target not in by_id:
            raise ValueError(
                f"correspondence references unknown systems"
                f" {corr.source!r}, {corr.target!r}"
            )
        if check(by_id[corr.source], by_id[corr.target], corr) is not None:
            successors[corr.source].add(corr.target)
            successors[corr.target].add(corr.source)
    closure: set[tuple[str, str]] = set()
    for start in successors:
        reached: set[str] = set()
        stack = [start]
        while stack:
            for node in successors[stack.pop()] - reached:
                reached.add(node)
                stack.append(node)
        closure.update((start, node) for node in reached if node != start)
    return closure
