"""The plan mini-language: sub-question decomposition with dependency
references and set algebra over bound sub-answers.

Grammar (one sub-question per line)::

    ID: Ans(type | relation(head, ?))
    ID: inter(ID, ID, ...)          # >= 2 arguments
    ID: union(ID, ID, ...)          # >= 2 arguments
    ID: negation(ID; ID, ...)       # primary ; subtracted (>= 1)
    ID: ID                          # plain reference

IDs look like S1, S2, ...; an Ans head is either literal entity text or a
sub-question id, meaning "each answer of that sub-question". Forward
references are allowed as long as the dependency graph stays acyclic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Set, Union as TypingUnion

ID_RE = re.compile(r"^[Ss]\d+$")
_LINE_RE = re.compile(r"^\s*([Ss]\d+)\s*:\s*(.+?)\s*$")
_CALL_RE = re.compile(r"^([A-Za-z_]+)\s*\((.*)\)\s*$", re.DOTALL)
_RELATION_CALL_RE = re.compile(r"^(\S+)\s*\((.*)\)\s*$", re.DOTALL)


class PlanError(ValueError):
    """Raised for plan syntax errors, bad references, cycles, and misuse of
    expression evaluation."""


@dataclass(frozen=True)
class Ans:
    """Retrieval expression: look up entities of ``target_type`` reached from
    ``head`` via a relation matching ``relation_hypothesis``. Resolved by
    rollout tool calls, never by :func:`eval_expr`."""

    target_type: str
    head: str
    relation_hypothesis: str
    head_is_ref: bool = False


@dataclass(frozen=True)
class Inter:
    refs: tuple[str, ...]


@dataclass(frozen=True)
class Union:
    refs: tuple[str, ...]


@dataclass(frozen=True)
class Negation:
    """Primary set minus the union of the subtracted sets."""

    primary: str
    subtracted: tuple[str, ...]


@dataclass(frozen=True)
class Ref:
    id: str


Expr = TypingUnion[Ans, Inter, Union, Negation, Ref]


@dataclass(frozen=True)
class SubQuestion:
    id: str
    text: str
    expr: Expr


@dataclass(frozen=True)
class Plan:
    sub_questions: tuple[SubQuestion, ...]

    def ids(self) -> list[str]:
        return [sq.id for sq in self.sub_questions]

    def by_id(self, sq_id: str) -> SubQuestion:
        for sq in self.sub_questions:
            if sq.id == sq_id:
                return sq
        raise KeyError(sq_id)


def expr_dependencies(expr: Expr) -> tuple[str, ...]:
    """Sub-question ids an expression depends on."""
    if isinstance(expr, Ans):
        return (expr.head,) if expr.head_is_ref else ()
    if isinstance(expr, (Inter, Union)):
        return expr.refs
    if isinstance(expr, Negation):
        return (expr.primary, *expr.subtracted)
    return (expr.id,)


def _split_ids(text: str, lineno: int, what: str) -> tuple[str, ...]:
    ids = tuple(part.strip().upper() for part in text.split(",") if part.strip())
    for sq_id in ids:
        if not ID_RE.match(sq_id):
            raise PlanError(f"line {lineno}: {what} argument {sq_id!r} is not a sub-question id")
    return ids

def _parse_expr(src: str, lineno: int) -> Expr:
    src = src.strip()
    if ID_RE.match(src):
        return Ref(src.upper())
    call = _CALL_RE.match(src)
    if not call:
        raise PlanError(f"line {lineno}: cannot parse expression {src!r}")
    name, inner = call.group(1).lower(), call.group(2).strip()
    if name == "ans":
        target_type, sep, rest = inner.partition("|")
        if not sep:
            raise PlanError(f"line {lineno}: Ans needs 'type | relation(head, ?)', got {inner!r}")
        rel_call = _RELATION_CALL_RE.match(rest.strip())
        if not rel_call:
            raise PlanError(f"line {lineno}: Ans needs a relation(head, ?) call, got {rest.strip()!r}")
        relation, args = rel_call.group(1), rel_call.group(2)
        head, sep, target = args.rpartition(",")
        if not sep or target.strip() != "?":
            raise PlanError(f"line {lineno}: relation call must end with ', ?', got {args!r}")
        head = head.strip()
        if not head:
            raise PlanError(f"line {lineno}: relation call has an empty head")
        is_ref = bool(ID_RE.match(head))
        return Ans(target_type.strip(), head.upper() if is_ref else head, relation, head_is_ref=is_ref)
    if name == "inter":
        refs = _split_ids(inner, lineno, "inter")
        if len(refs) < 2:
            raise PlanError(f"line {lineno}: inter needs at least 2 arguments")
        return Inter(refs)
    if name == "union":
        refs = _split_ids(inner, lineno, "union")
        if len(refs) < 2:
            raise PlanError(f"line {lineno}: union needs at least 2 arguments")
        return Union(refs)
    if name == "negation":
        primary, sep, rest = inner.partition(";")
        primary = primary.strip().upper()
        if not ID_RE.match(primary):
            raise PlanError(f"line {lineno}: negation primary {primary!r} is not a sub-question id")
        subtracted = _split_ids(rest, lineno, "negation") if sep else ()
        if not subtracted:
            raise PlanError(f"line {lineno}: negation needs at least one subtracted id")
        return Negation(primary, subtracted)
    raise PlanError(f"line {lineno}: unknown function {name!r}")


def parse_plan(content: str) -> Plan:
    """Parse the inner text of a plan block. Raises :class:`PlanError` with
    the line number for syntax errors, duplicate ids, undeclared references
    and dependency cycles, and for a plan with no sub-questions."""
    subs: list[SubQuestion] = []
    declared: set[str] = set()
    for lineno, line in enumerate(content.splitlines(), start=1):
        if not line.strip():
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise PlanError(f"line {lineno}: expected 'ID: EXPR', got {line.strip()!r}")
        sq_id = m.group(1).upper()
        if sq_id in declared:
            raise PlanError(f"line {lineno}: duplicate sub-question id {sq_id}")
        declared.add(sq_id)
        subs.append(SubQuestion(sq_id, m.group(2).strip(), _parse_expr(m.group(2), lineno)))
    if not subs:
        raise PlanError("plan has no sub-questions")
    plan = Plan(tuple(subs))
    for sq in subs:
        for dep in expr_dependencies(sq.expr):
            if dep not in declared:
                raise PlanError(f"sub-question {sq.id} references undeclared id {dep}")
    execution_order(plan)  # raises on cycles
    return plan


def execution_order(plan: Plan) -> list[str]:
    """Dependency-respecting execution order; among ready sub-questions,
    declaration order wins, so the result is deterministic."""
    ids = plan.ids()
    deps = {sq.id: set(expr_dependencies(sq.expr)) for sq in plan.sub_questions}
    order: list[str] = []
    placed: set[str] = set()
    remaining = list(ids)
    while remaining:
        ready = next((sq_id for sq_id in remaining if deps[sq_id] <= placed), None)
        if ready is None:
            raise PlanError(f"dependency cycle among sub-questions: {', '.join(sorted(remaining))}")
        order.append(ready)
        placed.add(ready)
        remaining.remove(ready)
    return order


def eval_expr(expr: Expr, bindings: Mapping[str, Set[str]]) -> set[str]:
    """Evaluate a set-algebra expression over bound sub-answers (normalized
    texts). ``Ans`` nodes are resolved by tool calls during rollout and are
    an error here; a Negation with no subtracted sets is the identity."""
    if isinstance(expr, Ans):
        raise PlanError("Ans expressions are resolved by rollout tool calls, not eval_expr")

    def bound(sq_id: str) -> set[str]:
        if sq_id not in bindings:
            raise PlanError(f"unbound sub-question reference {sq_id}")
        return set(bindings[sq_id])

    if isinstance(expr, Ref):
        return bound(expr.id)
    if isinstance(expr, Inter):
        sets = [bound(r) for r in expr.refs]
        out = sets[0]
        for s in sets[1:]:
            out &= s
        return out
    if isinstance(expr, Union):
        out: set[str] = set()
        for r in expr.refs:
            out |= bound(r)
        return out
    if isinstance(expr, Negation):
        out = bound(expr.primary)
        for r in expr.subtracted:
            out -= bound(r)
        return out
    raise PlanError(f"unknown expression node {expr!r}")
