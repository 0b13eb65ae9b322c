"""AST -> Cypher text.

The unparser produces a canonical rendering of any AST the parser can
build.  Round-tripping (parse, unparse, parse again, compare ASTs) is
used as a property test of the whole front end.
"""

from __future__ import annotations

from typing import Any

from repro.parser import ast

_MERGE_KEYWORDS = {
    ast.MERGE_LEGACY: "MERGE",
    ast.MERGE_ALL: "MERGE ALL",
    ast.MERGE_SAME: "MERGE SAME",
    ast.MERGE_GROUPING: "MERGE GROUPING",
    ast.MERGE_WEAK_COLLAPSE: "MERGE WEAK COLLAPSE",
    ast.MERGE_COLLAPSE: "MERGE COLLAPSE",
}

_IDENT_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _ident(name: str) -> str:
    """Quote an identifier with backticks when necessary."""
    if name and name[0].isalpha() and all(c in _IDENT_SAFE for c in name):
        return name
    escaped = name.replace("`", "``")
    return f"`{escaped}`"


def _string(value: str) -> str:
    escaped = (
        value.replace("\\", "\\\\")
        .replace("'", "\\'")
        .replace("\n", "\\n")
        .replace("\t", "\\t")
        .replace("\r", "\\r")
    )
    return f"'{escaped}'"


def unparse(node: Any) -> str:
    """Render a statement, query, clause, pattern or expression."""
    if isinstance(node, ast.SchemaStatement):
        return _unparse_schema(node)
    if isinstance(node, ast.Statement):
        return unparse(node.query)
    if isinstance(node, ast.UnionQuery):
        keyword = "UNION ALL" if node.all else "UNION"
        return f"{unparse(node.left)} {keyword} {unparse(node.right)}"
    if isinstance(node, ast.SingleQuery):
        return " ".join(unparse(clause) for clause in node.clauses)
    if isinstance(node, ast.Clause):
        return _unparse_clause(node)
    if isinstance(node, ast.Pattern):
        return ", ".join(unparse(path) for path in node.paths)
    if isinstance(node, ast.PathPattern):
        return _unparse_path(node)
    if isinstance(node, (ast.NodePattern, ast.RelationshipPattern)):
        return _unparse_pattern_element(node)
    if isinstance(node, ast.Expression):
        return _expr(node)
    raise TypeError(f"cannot unparse {type(node).__name__}")


def _unparse_schema(statement: ast.SchemaStatement) -> str:
    action = "CREATE" if statement.kind.startswith("create") else "DROP"
    label = _ident(statement.label)
    key = _ident(statement.key)
    if statement.kind.endswith("index"):
        return f"{action} INDEX ON :{label}({key})"
    return f"{action} CONSTRAINT ON (n:{label}) ASSERT n.{key} IS UNIQUE"


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------

def _unparse_clause(clause: ast.Clause) -> str:
    if isinstance(clause, ast.MatchClause):
        text = "OPTIONAL MATCH " if clause.optional else "MATCH "
        text += unparse(clause.pattern)
        # Pushed comparisons are WHERE conjuncts the rewriter moved.
        conjuncts = pushed_conjuncts(clause.pattern)
        if clause.where is not None:
            conjuncts.append(clause.where)
        if conjuncts:
            where = conjuncts[0]
            for conjunct in conjuncts[1:]:
                where = ast.Binary("AND", where, conjunct)
            text += f" WHERE {_expr(where)}"
        return text
    if isinstance(clause, ast.UnwindClause):
        return f"UNWIND {_expr(clause.expression)} AS {_ident(clause.variable)}"
    if isinstance(clause, ast.WithClause):
        text = "WITH " + _projection_body(clause.body)
        if clause.where is not None:
            text += f" WHERE {_expr(clause.where)}"
        return text
    if isinstance(clause, ast.ReturnClause):
        return "RETURN " + _projection_body(clause.body)
    if isinstance(clause, ast.LoadCsvClause):
        text = "LOAD CSV "
        if clause.with_headers:
            text += "WITH HEADERS "
        text += f"FROM {_expr(clause.source)} AS {_ident(clause.variable)}"
        if clause.field_terminator is not None:
            text += f" FIELDTERMINATOR {_string(clause.field_terminator)}"
        return text
    if isinstance(clause, ast.CreateClause):
        return "CREATE " + unparse(clause.pattern)
    if isinstance(clause, ast.DeleteClause):
        keyword = "DETACH DELETE" if clause.detach else "DELETE"
        exprs = ", ".join(_expr(e) for e in clause.expressions)
        return f"{keyword} {exprs}"
    if isinstance(clause, ast.SetClause):
        return "SET " + ", ".join(_set_item(item) for item in clause.items)
    if isinstance(clause, ast.RemoveClause):
        return "REMOVE " + ", ".join(
            _remove_item(item) for item in clause.items
        )
    if isinstance(clause, ast.MergeClause):
        text = _MERGE_KEYWORDS[clause.semantics] + " " + unparse(clause.pattern)
        if clause.on_create:
            text += " ON CREATE SET " + ", ".join(
                _set_item(item) for item in clause.on_create
            )
        if clause.on_match:
            text += " ON MATCH SET " + ", ".join(
                _set_item(item) for item in clause.on_match
            )
        return text
    if isinstance(clause, ast.ForeachClause):
        updates = " ".join(unparse(update) for update in clause.updates)
        return (
            f"FOREACH ({_ident(clause.variable)} IN "
            f"{_expr(clause.source)} | {updates})"
        )
    raise TypeError(f"cannot unparse clause {type(clause).__name__}")


def _projection_body(body: ast.ProjectionBody) -> str:
    parts: list[str] = []
    if body.distinct:
        parts.append("DISTINCT")
    item_texts: list[str] = []
    if body.include_existing:
        item_texts.append("*")
    for item in body.items:
        text = _expr(item.expression)
        if item.alias is not None:
            text += f" AS {_ident(item.alias)}"
        item_texts.append(text)
    parts.append(", ".join(item_texts))
    if body.order_by:
        sort_texts = [
            _expr(s.expression) + ("" if s.ascending else " DESC")
            for s in body.order_by
        ]
        parts.append("ORDER BY " + ", ".join(sort_texts))
    if body.skip is not None:
        parts.append(f"SKIP {_expr(body.skip)}")
    if body.limit is not None:
        parts.append(f"LIMIT {_expr(body.limit)}")
    return " ".join(parts)


def _set_item(item: ast.SetItem) -> str:
    if isinstance(item, ast.SetProperty):
        return f"{_expr(item.target)} = {_expr(item.value)}"
    if isinstance(item, ast.SetAllProperties):
        return f"{_expr(item.target)} = {_expr(item.value)}"
    if isinstance(item, ast.SetAdditiveProperties):
        return f"{_expr(item.target)} += {_expr(item.value)}"
    if isinstance(item, ast.SetLabels):
        labels = "".join(f":{_ident(label)}" for label in item.labels)
        return f"{_expr(item.target)}{labels}"
    raise TypeError(f"cannot unparse set item {type(item).__name__}")


def _remove_item(item: ast.RemoveItem) -> str:
    if isinstance(item, ast.RemoveProperty):
        return _expr(item.target)
    if isinstance(item, ast.RemoveLabels):
        labels = "".join(f":{_ident(label)}" for label in item.labels)
        return f"{_expr(item.target)}{labels}"
    raise TypeError(f"cannot unparse remove item {type(item).__name__}")


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

def pushed_conjuncts(pattern: ast.Pattern) -> list[ast.Binary]:
    """The pattern's pushed comparisons as ``variable.key op value``."""
    return [
        ast.Binary(
            comparison.operator,
            ast.Property(ast.Variable(element.variable), comparison.key),
            comparison.value,
        )
        for path in pattern.paths
        for element in path.elements
        for comparison in element.comparisons
    ]


def _unparse_path(path: ast.PathPattern) -> str:
    text = ""
    if path.variable is not None:
        text += f"{_ident(path.variable)} = "
    text += "".join(
        _unparse_pattern_element(element) for element in path.elements
    )
    return text


def _unparse_pattern_element(element: Any) -> str:
    if isinstance(element, ast.NodePattern):
        inner = ""
        if element.variable is not None:
            inner += _ident(element.variable)
        inner += "".join(f":{_ident(label)}" for label in element.labels)
        if element.properties is not None and element.properties.items:
            if inner:
                inner += " "
            inner += _expr(element.properties)
        return f"({inner})"
    if isinstance(element, ast.RelationshipPattern):
        inner = ""
        if element.variable is not None:
            inner += _ident(element.variable)
        if element.types:
            inner += ":" + "|".join(_ident(t) for t in element.types)
        if element.var_length is not None:
            lower, upper = element.var_length
            if lower is not None and lower == upper:
                inner += f"*{lower}"
            else:
                inner += "*"
                if lower is not None:
                    inner += str(lower)
                if (lower, upper) != (None, None) and upper != lower:
                    inner += ".."
                    if upper is not None:
                        inner += str(upper)
        if element.properties is not None and element.properties.items:
            if inner:
                inner += " "
            inner += _expr(element.properties)
        body = f"[{inner}]" if inner else ""
        left = "<-" if element.direction == ast.IN else "-"
        right = "->" if element.direction == ast.OUT else "-"
        return f"{left}{body}{right}"
    raise TypeError(f"cannot unparse pattern element {type(element).__name__}")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

#: Binding strength per operator, used to parenthesise only when needed.
_PRECEDENCE = {
    "OR": 1,
    "XOR": 2,
    "AND": 3,
    "NOT": 4,
    "=": 5, "<>": 5, "<": 5, "<=": 5, ">": 5, ">=": 5,
    "IN": 6, "STARTS WITH": 6, "ENDS WITH": 6, "CONTAINS": 6,
    "+": 7, "-": 7,
    "*": 8, "/": 8, "%": 8,
    "^": 9,
}

_ATOM_PRECEDENCE = 10


def _expr(node: ast.Expression, parent_precedence: int = 0) -> str:
    text, precedence = _expr_with_precedence(node)
    if precedence < parent_precedence:
        return f"({text})"
    return text


def _expr_with_precedence(node: ast.Expression) -> tuple[str, int]:
    if isinstance(node, ast.Literal):
        return _literal(node.value), _ATOM_PRECEDENCE
    if isinstance(node, ast.Parameter):
        return f"${_ident(node.name)}", _ATOM_PRECEDENCE
    if isinstance(node, ast.Variable):
        return _ident(node.name), _ATOM_PRECEDENCE
    if isinstance(node, ast.Property):
        return (
            f"{_expr(node.subject, _ATOM_PRECEDENCE)}.{_ident(node.key)}",
            _ATOM_PRECEDENCE,
        )
    if isinstance(node, ast.ListLiteral):
        inner = ", ".join(_expr(item) for item in node.items)
        return f"[{inner}]", _ATOM_PRECEDENCE
    if isinstance(node, ast.MapLiteral):
        inner = ", ".join(
            f"{_ident(key)}: {_expr(value)}" for key, value in node.items
        )
        return f"{{{inner}}}", _ATOM_PRECEDENCE
    if isinstance(node, ast.Unary):
        if node.operator == "NOT":
            precedence = _PRECEDENCE["NOT"]
            return f"NOT {_expr(node.operand, precedence)}", precedence
        return (
            f"{node.operator}{_expr(node.operand, _ATOM_PRECEDENCE)}",
            _ATOM_PRECEDENCE,
        )
    if isinstance(node, ast.Binary):
        precedence = _PRECEDENCE[node.operator]
        if node.operator == "^":  # right-associative
            left = _expr(node.left, precedence + 1)
            right = _expr(node.right, precedence)
        elif precedence == 5:  # comparisons are non-associative
            left = _expr(node.left, precedence + 1)
            right = _expr(node.right, precedence + 1)
        else:
            left = _expr(node.left, precedence)
            right = _expr(node.right, precedence + 1)
        return f"{left} {node.operator} {right}", precedence
    if isinstance(node, ast.IsNull):
        keyword = "IS NOT NULL" if node.negated else "IS NULL"
        return f"{_expr(node.operand, 6)} {keyword}", 6
    if isinstance(node, ast.HasLabels):
        labels = "".join(f":{_ident(label)}" for label in node.labels)
        return f"{_expr(node.subject, _ATOM_PRECEDENCE)}{labels}", 6
    if isinstance(node, ast.FunctionCall):
        distinct = "DISTINCT " if node.distinct else ""
        args = ", ".join(_expr(arg) for arg in node.args)
        return f"{_ident(node.name)}({distinct}{args})", _ATOM_PRECEDENCE
    if isinstance(node, ast.CountStar):
        return "count(*)", _ATOM_PRECEDENCE
    if isinstance(node, ast.CaseExpression):
        parts = ["CASE"]
        if node.operand is not None:
            parts.append(_expr(node.operand))
        for condition, result in node.alternatives:
            parts.append(f"WHEN {_expr(condition)} THEN {_expr(result)}")
        if node.default is not None:
            parts.append(f"ELSE {_expr(node.default)}")
        parts.append("END")
        return " ".join(parts), _ATOM_PRECEDENCE
    if isinstance(node, ast.ListComprehension):
        text = f"[{_ident(node.variable)} IN {_expr(node.source)}"
        if node.predicate is not None:
            text += f" WHERE {_expr(node.predicate)}"
        if node.projection is not None:
            text += f" | {_expr(node.projection)}"
        return text + "]", _ATOM_PRECEDENCE
    if isinstance(node, ast.Quantifier):
        return (
            f"{node.kind}({_ident(node.variable)} IN {_expr(node.source)} "
            f"WHERE {_expr(node.predicate)})",
            _ATOM_PRECEDENCE,
        )
    if isinstance(node, ast.Reduce):
        return (
            f"reduce({_ident(node.accumulator)} = {_expr(node.init)}, "
            f"{_ident(node.variable)} IN {_expr(node.source)} | "
            f"{_expr(node.expression)})",
            _ATOM_PRECEDENCE,
        )
    if isinstance(node, ast.Subscript):
        return (
            f"{_expr(node.subject, _ATOM_PRECEDENCE)}[{_expr(node.index)}]",
            _ATOM_PRECEDENCE,
        )
    if isinstance(node, ast.Slice):
        start = _expr(node.start) if node.start is not None else ""
        end = _expr(node.end) if node.end is not None else ""
        return (
            f"{_expr(node.subject, _ATOM_PRECEDENCE)}[{start}..{end}]",
            _ATOM_PRECEDENCE,
        )
    if isinstance(node, ast.PatternExpression):
        return _unparse_path(node.pattern), 6
    if isinstance(node, ast.ExistsExpression):
        if isinstance(node.argument, ast.PathPattern):
            return f"exists({_unparse_path(node.argument)})", _ATOM_PRECEDENCE
        return f"exists({_expr(node.argument)})", _ATOM_PRECEDENCE
    if isinstance(node, ast.HoistedExpression):
        # Rewrite marker: unparse transparently so RETURN column names
        # (derived from unparsed expressions) are unchanged by hoisting.
        return _expr_with_precedence(node.expression)
    raise TypeError(f"cannot unparse expression {type(node).__name__}")


def _literal(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, float):
        text = repr(value)
        return text if ("." in text or "e" in text or "E" in text) else text + ".0"
    return repr(value)
