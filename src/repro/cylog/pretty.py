"""Pretty-printer: AST back to canonical CyLog source.

``parse_program(program_to_source(p))`` reproduces ``p`` (modulo the raw
``source`` attribute), which the property-based round-trip tests rely on.
"""

from __future__ import annotations

import json

from repro.cylog.ast import (
    AggregateTerm,
    ArithExpr,
    Assignment,
    Atom,
    BinArith,
    BodyLiteral,
    Comparison,
    Const,
    Fact,
    Head,
    Negation,
    OpenDecl,
    Program,
    Rule,
    Var,
)

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def const_to_source(const: Const) -> str:
    if isinstance(const.value, bool):
        return "true" if const.value else "false"
    if isinstance(const.value, str):
        if const.symbol:
            return const.value
        return json.dumps(const.value)
    if isinstance(const.value, float) and const.value == int(const.value):
        return f"{const.value:.1f}"
    return repr(const.value)


def term_to_source(term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Const):
        return const_to_source(term)
    if isinstance(term, AggregateTerm):
        return f"{term.func}<{term.var.name}>"
    raise TypeError(f"not a term: {term!r}")


def expr_to_source(expr: ArithExpr, parent_precedence: int = 0) -> str:
    if isinstance(expr, BinArith):
        precedence = _PRECEDENCE[expr.op]
        text = (
            f"{expr_to_source(expr.left, precedence)} {expr.op} "
            f"{expr_to_source(expr.right, precedence + 1)}"
        )
        if precedence < parent_precedence:
            return f"({text})"
        return text
    return term_to_source(expr)


def atom_to_source(atom: Atom) -> str:
    if not atom.terms:
        return f"{atom.predicate}()"
    args = ", ".join(term_to_source(t) for t in atom.terms)
    return f"{atom.predicate}({args})"


def head_to_source(head: Head) -> str:
    if not head.terms:
        return f"{head.predicate}()"
    args = ", ".join(term_to_source(t) for t in head.terms)
    return f"{head.predicate}({args})"


def literal_to_source(literal: BodyLiteral) -> str:
    if isinstance(literal, Atom):
        return atom_to_source(literal)
    if isinstance(literal, Negation):
        return f"not {atom_to_source(literal.atom)}"
    if isinstance(literal, Comparison):
        left = expr_to_source(literal.left)
        return f"{left} {literal.op} {expr_to_source(literal.right)}"
    if isinstance(literal, Assignment):
        return f"{literal.var.name} = {expr_to_source(literal.expr)}"
    raise TypeError(f"not a body literal: {literal!r}")


def rule_to_source(rule: Rule) -> str:
    body = ", ".join(literal_to_source(lit) for lit in rule.body)
    return f"{head_to_source(rule.head)} :- {body}."


def fact_to_source(fact: Fact) -> str:
    return f"{atom_to_source(fact.atom)}."


def open_decl_to_source(decl: OpenDecl) -> str:
    params = ", ".join(f"{p.name}: {p.type}" for p in decl.params)
    parts = [f"open {decl.name}({params})"]
    if decl.key:
        parts.append(f"key ({', '.join(decl.key)})")
    if decl.asking is not None:
        parts.append(f"asking {json.dumps(decl.asking)}")
    if decl.choices:
        parts.append(f"choices ({', '.join(const_to_source(c) for c in decl.choices)})")
    return " ".join(parts) + "."


# ---------------------------------------------------------------------------
# Join-plan rendering (duck-typed over safety.JoinPlan to avoid an import
# cycle: safety imports this module for error messages)
# ---------------------------------------------------------------------------


def plan_step_to_source(step) -> str:
    """Render one plan step with its access path annotation.

    ``idx(p,...)`` marks a hash-index probe on term positions ``p`` and
    ``scan`` a full scan.
    """
    base = literal_to_source(step.literal)
    if isinstance(step.literal, (Atom, Negation)):
        if step.index_positions:
            positions = ",".join(str(p) for p in step.index_positions)
            return f"{base} [idx({positions})]"
        return f"{base} [scan]"
    return base


def join_plan_to_source(plan) -> str:
    """Render a whole join plan as an annotated body."""
    return ", ".join(plan_step_to_source(step) for step in plan.steps)


def explain_rule(compiled_rule) -> str:
    """Render a compiled rule's plan, including any delta-first rewrites."""
    lines = [
        f"{head_to_source(compiled_rule.rule.head)} :- "
        f"{join_plan_to_source(compiled_rule.join_plan)}."
        f"  % stratum {compiled_rule.stratum}"
    ]
    for position in sorted(compiled_rule.delta_plans):
        delta_plan = compiled_rule.delta_plans[position]
        atom = compiled_rule.join_plan.steps[position].literal
        lines.append(
            f"  delta[{atom_to_source(atom)}]: {join_plan_to_source(delta_plan)}"
        )
    return "\n".join(lines)


def explain_program(compiled) -> str:
    """Render every rule's join plan of a compiled program."""
    return "\n".join(explain_rule(rule) for rule in compiled.rules)


def program_to_source(program: Program) -> str:
    """Render the whole program: opens, then facts, then rules."""
    lines: list[str] = []
    lines.extend(open_decl_to_source(decl) for decl in program.opens)
    lines.extend(fact_to_source(fact) for fact in program.facts)
    lines.extend(rule_to_source(rule) for rule in program.rules)
    return "\n".join(lines) + ("\n" if lines else "")
