"""Abstract syntax trees for Cypher statements.

The node classes mirror the grammar of the paper: Figure 2 (queries and
clause sequences), Figure 3 (update clauses), Figure 4 (SET/REMOVE
items), Figure 5 (update patterns) and Figure 10 (the revised grammar
with ``MERGE ALL`` / ``MERGE SAME`` and freely interleaved clauses).
Reading-clause and expression forms follow the openCypher grammar the
paper's companion formalization [Francis et al. 2018] assumes.

All nodes are frozen dataclasses: an AST is a value, shared freely
between the two dialect executors, the formal reference semantics and
the unparser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Marker base class for all expression nodes."""

    __slots__ = ()

    #: ``(closure, is_constant)`` once :mod:`repro.runtime.compiler` has
    #: compiled the node.  An instance attribute, not a field: equality,
    #: hashing, ``repr`` and ``dataclasses.replace`` do not see it, and
    #: the closure lives exactly as long as the node it was compiled from.
    _compiled = None


@dataclass(frozen=True, eq=False)
class Literal(Expression):
    """A constant: null, boolean, integer, float or string.

    Equality and hashing are *type-aware*: under Python's numeric
    equality ``True == 1 == 1.0``, so the dataclass-generated ``__eq__``
    would conflate ``Literal(True)``, ``Literal(1)`` and
    ``Literal(1.0)`` -- semantically different constants, which
    anything comparing statements structurally must keep apart.
    """

    value: Any

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return (
            type(self.value) is type(other.value)
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((Literal, type(self.value), self.value))


@dataclass(frozen=True)
class Parameter(Expression):
    """A statement parameter ``$name``."""

    name: str


@dataclass(frozen=True)
class Variable(Expression):
    """A reference to a bound variable."""

    name: str


@dataclass(frozen=True)
class Property(Expression):
    """Property access ``subject.key``."""

    subject: Expression
    key: str


@dataclass(frozen=True)
class ListLiteral(Expression):
    """A list expression ``[e1, e2, ...]``."""

    items: tuple[Expression, ...]


@dataclass(frozen=True)
class MapLiteral(Expression):
    """A map expression ``{k1: e1, ...}`` (also pattern property maps)."""

    items: tuple[tuple[str, Expression], ...]

    #: the variables the map's expressions read, once
    #: :func:`repro.runtime.compiler.compile_map` has collected them
    #: (cached on the node like :attr:`Expression._compiled`)
    _variables = None

    def keys(self) -> tuple[str, ...]:
        """The map's keys in source order."""
        return tuple(key for key, __ in self.items)


@dataclass(frozen=True)
class Unary(Expression):
    """Unary operator application: ``NOT``, ``-``, ``+``."""

    operator: str
    operand: Expression


@dataclass(frozen=True)
class Binary(Expression):
    """Binary operator application.

    Operators: arithmetic ``+ - * / % ^``, comparison
    ``= <> < <= > >=``, boolean ``AND OR XOR``, membership ``IN``, and
    string predicates ``STARTS WITH``, ``ENDS WITH``, ``CONTAINS``.
    """

    operator: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class IsNull(Expression):
    """``e IS NULL`` / ``e IS NOT NULL``."""

    operand: Expression
    negated: bool = False


@dataclass(frozen=True)
class HasLabels(Expression):
    """The label predicate ``n:Label1:Label2`` used in WHERE."""

    subject: Expression
    labels: tuple[str, ...]


@dataclass(frozen=True)
class FunctionCall(Expression):
    """``name(args)``; ``distinct`` marks aggregate DISTINCT."""

    name: str
    args: tuple[Expression, ...]
    distinct: bool = False


@dataclass(frozen=True)
class CountStar(Expression):
    """The aggregate ``count(*)``."""


@dataclass(frozen=True)
class CaseExpression(Expression):
    """Simple (with operand) or searched (operand=None) CASE."""

    operand: Optional[Expression]
    alternatives: tuple[tuple[Expression, Expression], ...]
    default: Optional[Expression] = None


@dataclass(frozen=True)
class ListComprehension(Expression):
    """``[x IN list WHERE pred | proj]``."""

    variable: str
    source: Expression
    predicate: Optional[Expression] = None
    projection: Optional[Expression] = None


@dataclass(frozen=True)
class Quantifier(Expression):
    """``any/all/none/single (x IN list WHERE pred)``."""

    kind: str  # "any" | "all" | "none" | "single"
    variable: str
    source: Expression
    predicate: Expression


@dataclass(frozen=True)
class Reduce(Expression):
    """``reduce(acc = init, x IN list | expr)``."""

    accumulator: str
    init: Expression
    variable: str
    source: Expression
    expression: Expression


@dataclass(frozen=True)
class Subscript(Expression):
    """Indexing ``subject[index]`` (lists and maps)."""

    subject: Expression
    index: Expression


@dataclass(frozen=True)
class Slice(Expression):
    """List slicing ``subject[start..end]``."""

    subject: Expression
    start: Optional[Expression] = None
    end: Optional[Expression] = None


@dataclass(frozen=True)
class PatternExpression(Expression):
    """A path pattern used as a predicate (true iff a match exists)."""

    pattern: "PathPattern"


@dataclass(frozen=True)
class ExistsExpression(Expression):
    """``exists(e)`` over a property (non-null test) or a pattern."""

    argument: Union[Expression, "PathPattern"]


@dataclass(frozen=True)
class HoistedExpression(Expression):
    """A rewrite marker: the wrapped expression is record-invariant.

    Never produced by the parser -- only by the common-subexpression
    hoisting pass in :mod:`repro.runtime.rewrite`.  The compiler turns
    it into a lazily-evaluated per-statement memo, so the inner
    expression runs (and raises) at most once per execution context
    instead of once per record.  Semantically transparent: evaluation,
    unparsing and traversal all behave as if the wrapper were absent.
    """

    expression: Expression


# ---------------------------------------------------------------------------
# Patterns (Figure 5 and the revised Figure 10 forms)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PushedComparison:
    """A rewrite marker: ``variable.key <operator> value`` on an element.

    Never produced by the parser -- only by predicate pushdown in
    :mod:`repro.runtime.rewrite`, which moves a WHERE range conjunct
    (``<``, ``<=``, ``>``, ``>=``, the property always on the left) onto
    the pattern element it filters, so the store checks it against the
    property column before the candidate is bound.  Equalities move into
    the element's property map instead.  Unparsing renders the
    comparisons back as WHERE conjuncts.
    """

    key: str
    operator: str
    value: Expression


@dataclass(frozen=True)
class NodePattern:
    """``( name? :Label* {map}? )``."""

    variable: Optional[str] = None
    labels: tuple[str, ...] = ()
    properties: Optional[MapLiteral] = None
    #: rewrite-only (see :class:`PushedComparison`)
    comparisons: tuple[PushedComparison, ...] = ()

    #: the compiled property checks, once
    #: :func:`repro.runtime.match_planner.compile_checks` has built them
    #: (cached on the node like :attr:`Expression._compiled`)
    _checks = None


#: Direction of a relationship pattern.  ``BOTH`` (undirected) is legal
#: in MATCH always, and in legacy MERGE (Figure 5); the revised grammar
#: (Figure 10) requires CREATE and MERGE patterns to be directed.
OUT = "out"
IN = "in"
BOTH = "both"


@dataclass(frozen=True)
class RelationshipPattern:
    """``-[ name? :TYPE|TYPE2* {map}? *min..max? ]->`` and variants."""

    variable: Optional[str] = None
    types: tuple[str, ...] = ()
    properties: Optional[MapLiteral] = None
    direction: str = BOTH
    var_length: Optional[tuple[Optional[int], Optional[int]]] = None
    #: rewrite-only (see :class:`PushedComparison`)
    comparisons: tuple[PushedComparison, ...] = ()

    #: see :attr:`NodePattern._checks`
    _checks = None

    @property
    def is_var_length(self) -> bool:
        """True for ``*``-quantified patterns."""
        return self.var_length is not None


@dataclass(frozen=True)
class PathPattern:
    """``name? = (n1)-[r1]->(n2)...``: alternating node/rel elements."""

    variable: Optional[str] = None
    elements: tuple[Union[NodePattern, RelationshipPattern], ...] = ()

    @property
    def nodes(self) -> tuple[NodePattern, ...]:
        """The node patterns, in order."""
        return tuple(e for e in self.elements if isinstance(e, NodePattern))

    @property
    def relationships(self) -> tuple[RelationshipPattern, ...]:
        """The relationship patterns, in order."""
        return tuple(
            e for e in self.elements if isinstance(e, RelationshipPattern)
        )

    def __post_init__(self) -> None:
        elements = self.elements
        if not elements or not isinstance(elements[0], NodePattern):
            raise ValueError("a path pattern must start with a node pattern")
        for index, element in enumerate(elements):
            expected = NodePattern if index % 2 == 0 else RelationshipPattern
            if not isinstance(element, expected):
                raise ValueError(
                    "path pattern elements must alternate node/relationship"
                )
        if not isinstance(elements[-1], NodePattern):
            raise ValueError("a path pattern must end with a node pattern")


@dataclass(frozen=True)
class Pattern:
    """A comma-separated tuple of path patterns."""

    paths: tuple[PathPattern, ...]


# ---------------------------------------------------------------------------
# Projections (RETURN / WITH bodies)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionItem:
    """``expr [AS alias]``."""

    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class SortItem:
    """``expr [ASC|DESC]`` inside ORDER BY."""

    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class ProjectionBody:
    """The body shared by RETURN and WITH.

    ``include_existing`` encodes a leading ``*`` (RETURN *, WITH *).
    """

    items: tuple[ProjectionItem, ...] = ()
    include_existing: bool = False
    distinct: bool = False
    order_by: tuple[SortItem, ...] = ()
    skip: Optional[Expression] = None
    limit: Optional[Expression] = None


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------


class Clause:
    """Marker base class for all clause nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class MatchClause(Clause):
    """``[OPTIONAL] MATCH pattern [WHERE predicate]``."""

    pattern: Pattern
    optional: bool = False
    where: Optional[Expression] = None


@dataclass(frozen=True)
class UnwindClause(Clause):
    """``UNWIND expr AS variable``."""

    expression: Expression
    variable: str


@dataclass(frozen=True)
class WithClause(Clause):
    """``WITH body [WHERE predicate]``."""

    body: ProjectionBody
    where: Optional[Expression] = None


@dataclass(frozen=True)
class ReturnClause(Clause):
    """``RETURN body``."""

    body: ProjectionBody


@dataclass(frozen=True)
class LoadCsvClause(Clause):
    """``LOAD CSV [WITH HEADERS] FROM expr AS variable [FIELDTERMINATOR s]``."""

    source: Expression
    variable: str
    with_headers: bool = False
    field_terminator: Optional[str] = None


@dataclass(frozen=True)
class CreateClause(Clause):
    """``CREATE pattern`` (directed update patterns, Figure 5)."""

    pattern: Pattern


@dataclass(frozen=True)
class DeleteClause(Clause):
    """``[DETACH] DELETE expr, ...``."""

    expressions: tuple[Expression, ...]
    detach: bool = False


# --- SET items (Figure 4) --------------------------------------------------


@dataclass(frozen=True)
class SetProperty:
    """``SET e.k = value``."""

    target: Property
    value: Expression


@dataclass(frozen=True)
class SetAllProperties:
    """``SET e = map`` (replace the whole property map)."""

    target: Expression
    value: Expression


@dataclass(frozen=True)
class SetAdditiveProperties:
    """``SET e += map`` (merge into the property map)."""

    target: Expression
    value: Expression


@dataclass(frozen=True)
class SetLabels:
    """``SET e:Label1:Label2``."""

    target: Expression
    labels: tuple[str, ...]


SetItem = Union[SetProperty, SetAllProperties, SetAdditiveProperties, SetLabels]


@dataclass(frozen=True)
class SetClause(Clause):
    """``SET item, item, ...``."""

    items: tuple[SetItem, ...]


@dataclass(frozen=True)
class RemoveProperty:
    """``REMOVE e.k``."""

    target: Property


@dataclass(frozen=True)
class RemoveLabels:
    """``REMOVE e:Label1:Label2``."""

    target: Expression
    labels: tuple[str, ...]


RemoveItem = Union[RemoveProperty, RemoveLabels]


@dataclass(frozen=True)
class RemoveClause(Clause):
    """``REMOVE item, item, ...``."""

    items: tuple[RemoveItem, ...]


#: MERGE semantics selectors.  ``LEGACY`` is the bare Cypher 9 MERGE;
#: ``ALL`` and ``SAME`` are the decided revision (Section 7); the other
#: three are the remaining Section 6 proposals, accepted only when the
#: engine enables the extended experimental syntax.
MERGE_LEGACY = "legacy"
MERGE_ALL = "all"
MERGE_SAME = "same"
MERGE_GROUPING = "grouping"
MERGE_WEAK_COLLAPSE = "weak_collapse"
MERGE_COLLAPSE = "collapse"


@dataclass(frozen=True)
class MergeClause(Clause):
    """``MERGE [ALL|SAME|...] pattern``.

    Legacy merge takes a single, possibly undirected path pattern and
    optional ``ON CREATE SET`` / ``ON MATCH SET`` actions; revised merge
    takes a tuple of directed path patterns and no actions.
    """

    pattern: Pattern
    semantics: str = MERGE_LEGACY
    on_create: tuple[SetItem, ...] = ()
    on_match: tuple[SetItem, ...] = ()


@dataclass(frozen=True)
class ForeachClause(Clause):
    """``FOREACH (x IN list | update-clauses)``."""

    variable: str
    source: Expression
    updates: tuple[Clause, ...]


#: Clause categories used by the dialect-specific grammar checks
#: (Figure 2 vs Figure 10) and by the pipeline.
READING_CLAUSES = (MatchClause, UnwindClause, LoadCsvClause)
UPDATE_CLAUSES = (
    CreateClause,
    DeleteClause,
    SetClause,
    RemoveClause,
    MergeClause,
    ForeachClause,
)


def is_reading_clause(clause: Clause) -> bool:
    """True for MATCH / UNWIND / LOAD CSV."""
    return isinstance(clause, READING_CLAUSES)


def is_update_clause(clause: Clause) -> bool:
    """True for CREATE / DELETE / SET / REMOVE / MERGE / FOREACH."""
    return isinstance(clause, UPDATE_CLAUSES)


# ---------------------------------------------------------------------------
# Queries (Figure 2 / Figure 10)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleQuery:
    """A sequence of clauses (one UNION branch)."""

    clauses: tuple[Clause, ...]

    @property
    def return_clause(self) -> Optional[ReturnClause]:
        """The trailing RETURN clause, if any."""
        if self.clauses and isinstance(self.clauses[-1], ReturnClause):
            return self.clauses[-1]
        return None


@dataclass(frozen=True)
class UnionQuery:
    """``query UNION [ALL] query``."""

    left: Union["UnionQuery", SingleQuery]
    right: SingleQuery
    all: bool = False


Query = Union[SingleQuery, UnionQuery]


@dataclass(frozen=True)
class SchemaStatement:
    """A schema command: (CREATE|DROP) (INDEX|CONSTRAINT) on :label(key).

    ``kind`` is one of ``create_index``, ``drop_index``,
    ``create_unique_constraint``, ``drop_unique_constraint``.
    """

    kind: str
    label: str
    key: str
    source: str = field(default="", compare=False)


@dataclass(frozen=True)
class Statement:
    """The root of a parsed Cypher statement."""

    query: Query
    source: str = field(default="", compare=False)

    def branches(self) -> tuple[SingleQuery, ...]:
        """All UNION branches, left to right."""
        result: list[SingleQuery] = []

        def walk(query: Query) -> None:
            if isinstance(query, UnionQuery):
                walk(query.left)
                result.append(query.right)
            else:
                result.append(query)

        walk(self.query)
        return tuple(result)
