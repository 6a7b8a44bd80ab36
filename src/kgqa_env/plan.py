"""The plan mini-language: sub-question decomposition with dependency
references and set algebra over bound sub-answers.

Grammar (one sub-question per line)::

    ID: Ans(type | relation(head, ?))
    ID: inter(ID, ID, ...)          # >= 2 arguments
    ID: union(ID, ID, ...)          # >= 2 arguments
    ID: negation(ID; ID, ...)       # primary ; subtracted (>= 1)
    ID: ID                          # plain reference

IDs look like S1, S2, ...; an Ans head is either literal entity text or a
sub-question id, meaning "each answer of that sub-question". Every other
line parses to one :class:`SetOp`. Forward references are allowed as long
as the dependency graph stays acyclic; :func:`parse_plan` stores the order
the sub-questions run in as ``Plan.order``.
"""

from __future__ import annotations

import re
from typing import Mapping, NamedTuple, Set

ID_RE = re.compile(r"^[Ss]\d+$")
_LINE_RE = re.compile(r"^\s*([Ss]\d+)\s*:\s*(.+?)\s*$")
_CALL_RE = re.compile(r"^([A-Za-z_]+)\s*\((.*)\)\s*$", re.DOTALL)
_RELATION_CALL_RE = re.compile(r"^(\S+)\s*\((.*)\)\s*$", re.DOTALL)


class PlanError(ValueError):
    """Raised for plan syntax errors, bad references, cycles, and misuse of
    expression evaluation."""


class Ans(NamedTuple):
    """Retrieval expression: look up entities of ``target_type`` reached from
    ``head`` via a relation matching ``relation_hypothesis``. Resolved by
    rollout tool calls, never by :func:`eval_expr`."""

    target_type: str
    head: str
    relation_hypothesis: str

    @property
    def head_is_ref(self) -> bool:
        """Whether ``head`` names a sub-question rather than an entity."""
        return bool(ID_RE.match(self.head))


class SetOp(NamedTuple):
    """Set algebra over bound sub-answers. ``op`` is "inter", "union",
    "negation" (the first reference minus the union of the rest) or "ref"
    (the one reference, unchanged)."""

    op: str
    refs: tuple[str, ...]


Expr = Ans | SetOp


class SubQuestion(NamedTuple):
    id: str
    expr: Expr


class Plan(NamedTuple):
    """Sub-questions in declaration order (the last one is the answer) and
    ``order``, their ids in execution order: dependencies first, and among
    ready sub-questions declaration order wins, so it is deterministic."""

    sub_questions: tuple[SubQuestion, ...]
    order: tuple[str, ...]


def expr_dependencies(expr: Expr) -> tuple[str, ...]:
    """Sub-question ids an expression depends on."""
    if isinstance(expr, SetOp):
        return expr.refs
    return (expr.head,) if expr.head_is_ref else ()


def _split_ids(text: str, lineno: int, what: str) -> tuple[str, ...]:
    ids = tuple(part.strip().upper() for part in text.split(","))
    for sq_id in ids:
        if not ID_RE.match(sq_id):
            raise PlanError(f"line {lineno}: {what} argument {sq_id!r} is not a sub-question id")
    return ids


def _parse_expr(src: str, lineno: int) -> Expr:
    src = src.strip()
    if ID_RE.match(src):
        return SetOp("ref", (src.upper(),))
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
        return Ans(target_type.strip(), head.upper() if ID_RE.match(head) else head, relation)
    if name in ("inter", "union"):
        refs = _split_ids(inner, lineno, name)
        if len(refs) < 2:
            raise PlanError(f"line {lineno}: {name} needs at least 2 arguments")
        return SetOp(name, refs)
    if name == "negation":
        primary, sep, rest = inner.partition(";")
        primary = primary.strip().upper()
        if not ID_RE.match(primary):
            raise PlanError(f"line {lineno}: negation primary {primary!r} is not a sub-question id")
        if not sep:
            raise PlanError(f"line {lineno}: negation needs at least one subtracted id")
        return SetOp("negation", (primary, *_split_ids(rest, lineno, "negation")))
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
        subs.append(SubQuestion(sq_id, _parse_expr(m.group(2), lineno)))
    if not subs:
        raise PlanError("plan has no sub-questions")
    for sq in subs:
        for dep in expr_dependencies(sq.expr):
            if dep not in declared:
                raise PlanError(f"sub-question {sq.id} references undeclared id {dep}")
    return Plan(tuple(subs), _execution_order(subs))


def _execution_order(subs: list[SubQuestion]) -> tuple[str, ...]:
    """``Plan.order`` of these sub-questions; raises on a dependency cycle."""
    deps = {sq.id: set(expr_dependencies(sq.expr)) for sq in subs}
    order: list[str] = []
    placed: set[str] = set()
    remaining = list(deps)
    while remaining:
        ready = next((sq_id for sq_id in remaining if deps[sq_id] <= placed), None)
        if ready is None:
            raise PlanError(f"dependency cycle among sub-questions: {', '.join(sorted(remaining))}")
        order.append(ready)
        placed.add(ready)
        remaining.remove(ready)
    return tuple(order)


#: Each set operation applied to its references' sets, first one first.
_APPLY = {"inter": set.intersection, "union": set.union, "negation": set.difference, "ref": set.union}


def eval_expr(expr: Expr, bindings: Mapping[str, Set[str]]) -> set[str]:
    """Evaluate a set-algebra expression over bound sub-answers (normalized
    texts). ``Ans`` nodes are resolved by tool calls during rollout and are
    an error here; a negation with no subtracted sets is the identity."""
    if isinstance(expr, Ans):
        raise PlanError("Ans expressions are resolved by rollout tool calls, not eval_expr")
    unbound = next((sq_id for sq_id in expr.refs if sq_id not in bindings), None)
    if unbound is not None:
        raise PlanError(f"unbound sub-question reference {unbound}")
    first, *rest = (bindings[sq_id] for sq_id in expr.refs)
    return _APPLY[expr.op](set(first), *rest)
