"""The revised MERGE: all five Section 6 semantics.

The formal definition (Section 8.2) is::

    [[MERGE ALL pi]](G, T) = (G_create, T_match |+| T_create)

where ``T_match`` collects every match of ``pi`` in the *input* graph
for every record, ``T_fail`` keeps the records with no match (with
multiplicity), and ``(G_create, T_create) = [[CREATE pi]](G, T_fail)``.
``MERGE SAME`` is MERGE ALL followed by the quotient under the
collapsibility relations of Definitions 1-2.

Because matching happens against the input graph only, no variant can
read its own writes -- this is what removes the Example 3 / Figure 6
nondeterminism.

Implementation note (DESIGN.md decision 1): instead of materialising
the MERGE ALL graph and then collapsing it, creation consults an
:class:`~repro.core.create.EntityCache` keyed by the collapse class, so
each equivalence class is instantiated exactly once.  The five
semantics differ only in the key:

==================  =========================  ==============================
semantics           node key                   relationship key
==================  =========================  ==============================
Atomic              fresh per record           fresh per record
Grouping            (group, position)          (group, position)
Weak Collapse       (position, labels, props)  (position, type, props, ends)
Collapse            (labels, props)            (position, type, props, ends)
Strong Collapse     (labels, props)            (type, props, ends)
==================  =========================  ==============================

where *group* is the tuple of values of the expressions appearing in
the pattern (the Grouping criterion), *ends* are the post-collapse
endpoint ids (available immediately because nodes are cached before the
relationships that use them), and equality on values is equivalence
(null = null).  ``tests/properties`` checks this construction against
the literal create-then-quotient reference in :mod:`repro.formal`.
"""

from __future__ import annotations

import enum

from repro.errors import CypherSemanticError
from repro.graph.values import grouping_key
from repro.parser import ast
from repro.runtime.context import EvalContext
from repro.runtime.match_planner import PreparedPattern
from repro.runtime.matcher import match_prepared, pattern_variables
from repro.runtime.table import DrivingTable

from repro.core.create import EntityCache, Position, instantiate_pattern


class MergeSemantics(enum.Enum):
    """The five proposals of Section 6."""

    ATOMIC = "atomic"                   # shipped as MERGE ALL
    GROUPING = "grouping"
    WEAK_COLLAPSE = "weak_collapse"
    COLLAPSE = "collapse"
    STRONG_COLLAPSE = "strong_collapse"  # shipped as MERGE SAME

    @classmethod
    def from_clause(cls, semantics: str) -> "MergeSemantics":
        """Map the AST's MERGE selector to a semantics."""
        mapping = {
            ast.MERGE_ALL: cls.ATOMIC,
            ast.MERGE_SAME: cls.STRONG_COLLAPSE,
            ast.MERGE_GROUPING: cls.GROUPING,
            ast.MERGE_WEAK_COLLAPSE: cls.WEAK_COLLAPSE,
            ast.MERGE_COLLAPSE: cls.COLLAPSE,
        }
        return mapping[semantics]


def execute_merge(
    ctx: EvalContext, clause: ast.MergeClause, table: DrivingTable
) -> DrivingTable:
    """Entry point for revised MERGE clauses from the pipeline."""
    return merge(
        ctx, clause.pattern, table, MergeSemantics.from_clause(clause.semantics)
    )


def reject_null_merge_properties(pattern: ast.Pattern) -> None:
    """Reject a literal ``null`` property value in a MERGE pattern.

    ``MERGE (n:T {p: null})`` can never match (``n.p = null`` is null
    under ternary logic) yet would always create, so the statement is
    a disguised unconditional CREATE -- openCypher makes it a semantic
    error, and so do we, in every MERGE variant.  Only *literal* nulls
    are rejected: a null reaching the map through a variable or
    parameter keeps the paper's Example 5 semantics (the property is
    simply not stored on the created entity).
    """
    for path in pattern.paths:
        for element in path.elements:
            if element.properties is None:
                continue
            for key, value in element.properties.items:
                if isinstance(value, ast.Literal) and value.value is None:
                    raise CypherSemanticError(
                        f"cannot merge using null property value "
                        f"for '{key}'"
                    )


def merge(
    ctx: EvalContext,
    pattern: ast.Pattern,
    table: DrivingTable,
    semantics: MergeSemantics,
) -> DrivingTable:
    """Run one MERGE with the chosen semantics over the driving table."""
    reject_null_merge_properties(pattern)
    new_variables = [
        name
        for name in pattern_variables(pattern)
        if name not in table.columns
    ]
    output = DrivingTable(tuple(table.columns) + tuple(new_variables))
    # Phase 1 (read): match every record against the INPUT graph.  The
    # pattern is prepared once for the clause; each record is planned
    # and matched on its own (its matches depend on the graph only, so
    # nothing read here can see what phase 2 writes).
    prepared = PreparedPattern(ctx, pattern.paths)
    failing: list[dict] = []
    for record in table:
        matched_any = False
        for bindings in match_prepared(ctx, prepared, record):
            matched_any = True
            output.add({name: bindings.get(name) for name in output.columns})
        if not matched_any:
            failing.append(record)
    if ctx.profile is not None:
        ctx.profile.annotate(
            rows_matched=len(table) - len(failing),
            rows_created=len(failing),
        )
    # Phase 2 (write): one instantiation per collapse class.  The key
    # functions close over `current_group`, updated before each record.
    current_group: list[tuple] = [()]
    cache = _build_cache(semantics, current_group)
    for record in failing:
        if semantics is MergeSemantics.GROUPING:
            current_group[0] = _merge_group_key(ctx, prepared, record)
        instance = instantiate_pattern(ctx, pattern, record, cache)
        extended = dict(record)
        extended.update(instance.bindings)
        output.add({name: extended.get(name) for name in output.columns})
    return output


# ---------------------------------------------------------------------------
# Cache construction
# ---------------------------------------------------------------------------

def _build_cache(
    semantics: MergeSemantics, current_group: list[tuple]
) -> EntityCache | None:
    if semantics is MergeSemantics.ATOMIC:
        return None

    if semantics is MergeSemantics.GROUPING:

        def node_key(position: Position, labels, props):
            return ("g", current_group[0], position)

        def rel_key(position: Position, rel_type, props, source, target):
            return ("g", current_group[0], position)

    elif semantics is MergeSemantics.WEAK_COLLAPSE:

        def node_key(position, labels, props):
            return ("n", position, frozenset(labels), _canonical(props))

        def rel_key(position, rel_type, props, source, target):
            return ("r", position, rel_type, _canonical(props), source, target)

    elif semantics is MergeSemantics.COLLAPSE:

        def node_key(position, labels, props):
            return ("n", frozenset(labels), _canonical(props))

        def rel_key(position, rel_type, props, source, target):
            return ("r", position, rel_type, _canonical(props), source, target)

    else:  # STRONG_COLLAPSE

        def node_key(position, labels, props):
            return ("n", frozenset(labels), _canonical(props))

        def rel_key(position, rel_type, props, source, target):
            return ("r", rel_type, _canonical(props), source, target)

    return EntityCache(node_key=node_key, rel_key=rel_key)


def _canonical(prop_items: tuple) -> tuple:
    """Hashable, equivalence-respecting form of a property item tuple."""
    return tuple((key, grouping_key(value)) for key, value in prop_items)


# ---------------------------------------------------------------------------
# Grouping key
# ---------------------------------------------------------------------------

def _merge_group_key(
    ctx: EvalContext, prepared: PreparedPattern, record: dict
) -> tuple:
    """The Grouping criterion: the values of the expressions appearing
    in the pattern, plus the identities of bound variables.

    Only the GROUPING semantics uses it; ATOMIC creates fresh instances
    per record (no cache) and the collapse variants key on content.
    """
    parts: list = []
    for path in prepared.paths:
        for step in path.steps:
            variable = step.variable
            if variable is not None and variable in record:
                parts.append(grouping_key(record[variable]))
            for __, __, fn in step.items or ():
                parts.append(grouping_key(fn(ctx, record)))
    return tuple(parts)
