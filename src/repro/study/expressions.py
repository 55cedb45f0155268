"""Safe arithmetic expressions for derived study metrics.

A :class:`~repro.study.spec.StudySpec` may declare *derived metrics* — small
formulas over the engine's metric columns, evaluated per case after the engine
runs (e.g. ``bias_pct: 100 * (mean_w_per_km / analytic_w_per_km - 1)``).

The evaluator compiles the formula through the :mod:`ast` module and walks a
whitelist of node types (arithmetic, comparisons, conditional expressions and
a fixed function table), so a study file can never execute arbitrary code:
attribute access, subscripts, lambdas, imports and unknown function names all
raise :class:`~repro.errors.ConfigurationError` at *load* time, before any
engine runs.
"""

from __future__ import annotations

import ast
import functools
import math
from typing import Callable, Mapping

from repro.errors import ConfigurationError

__all__ = ["ALLOWED_FUNCTIONS", "compile_expression", "expression_names"]

#: Function table available inside derived-metric expressions.
ALLOWED_FUNCTIONS: dict[str, Callable] = {
    "abs": abs,
    "min": min,
    "max": max,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "log10": math.log10,
    "floor": math.floor,
    "ceil": math.ceil,
}

_BINARY_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
}

_UNARY_OPS = {
    ast.UAdd: lambda a: +a,
    ast.USub: lambda a: -a,
    ast.Not: lambda a: not a,
}

_COMPARE_OPS = {
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
}


def _validate(node: ast.AST, expression: str) -> None:
    """Reject any AST node outside the arithmetic whitelist."""
    for child in ast.walk(node):
        if isinstance(child, (ast.Expression, ast.Name, ast.Load,
                              ast.IfExp, ast.BoolOp, ast.And, ast.Or)):
            continue
        if isinstance(child, ast.Constant):
            if not isinstance(child.value, (int, float, bool)):
                raise ConfigurationError(
                    f"derived expression {expression!r}: only numeric "
                    f"constants are allowed, got {child.value!r}")
            continue
        if isinstance(child, ast.BinOp) and type(child.op) in _BINARY_OPS:
            continue
        if isinstance(child, ast.UnaryOp) and type(child.op) in _UNARY_OPS:
            continue
        if isinstance(child, ast.Compare):
            if all(type(op) in _COMPARE_OPS for op in child.ops):
                continue
            raise ConfigurationError(
                f"derived expression {expression!r}: unsupported comparison")
        if isinstance(child, ast.Call):
            if (isinstance(child.func, ast.Name)
                    and child.func.id in ALLOWED_FUNCTIONS
                    and not child.keywords):
                continue
            name = getattr(getattr(child, "func", None), "id", "<expr>")
            raise ConfigurationError(
                f"derived expression {expression!r}: function {name!r} is not "
                f"allowed; available: {sorted(ALLOWED_FUNCTIONS)}")
        if isinstance(child, (ast.operator, ast.unaryop, ast.cmpop)):
            if (type(child) in _BINARY_OPS or type(child) in _UNARY_OPS
                    or type(child) in _COMPARE_OPS):
                continue
            raise ConfigurationError(
                f"derived expression {expression!r}: operator "
                f"{type(child).__name__} is not allowed")
        raise ConfigurationError(
            f"derived expression {expression!r}: {type(child).__name__} "
            f"syntax is not allowed (plain arithmetic over metric names only)")


def _evaluate(node: ast.AST, env: Mapping[str, object], expression: str):
    if isinstance(node, ast.Expression):
        return _evaluate(node.body, env, expression)
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        try:
            return env[node.id]
        except KeyError:
            raise ConfigurationError(
                f"derived expression {expression!r}: unknown name {node.id!r}; "
                f"available metrics: {sorted(env)}") from None
    if isinstance(node, ast.BinOp):
        return _BINARY_OPS[type(node.op)](
            _evaluate(node.left, env, expression),
            _evaluate(node.right, env, expression))
    if isinstance(node, ast.UnaryOp):
        return _UNARY_OPS[type(node.op)](_evaluate(node.operand, env, expression))
    if isinstance(node, ast.Compare):
        left = _evaluate(node.left, env, expression)
        for op, comparator in zip(node.ops, node.comparators):
            right = _evaluate(comparator, env, expression)
            if not _COMPARE_OPS[type(op)](left, right):
                return False
            left = right
        return True
    if isinstance(node, ast.BoolOp):
        if isinstance(node.op, ast.And):
            result = True
            for value in node.values:
                result = _evaluate(value, env, expression)
                if not result:
                    return result
            return result
        result = False
        for value in node.values:
            result = _evaluate(value, env, expression)
            if result:
                return result
        return result
    if isinstance(node, ast.IfExp):
        if _evaluate(node.test, env, expression):
            return _evaluate(node.body, env, expression)
        return _evaluate(node.orelse, env, expression)
    if isinstance(node, ast.Call):
        args = [_evaluate(a, env, expression) for a in node.args]
        return ALLOWED_FUNCTIONS[node.func.id](*args)
    raise ConfigurationError(  # pragma: no cover - _validate rejects these
        f"derived expression {expression!r}: cannot evaluate "
        f"{type(node).__name__}")


@functools.lru_cache(maxsize=256)
def _validated_tree(expression: str) -> ast.Expression:
    """``expression`` parsed and checked against the whitelist, once per
    process: a spec load and every table build of the study reuse the
    tree, which no caller mutates.  Bounded, since a service parses the
    formulas its clients send."""
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise ConfigurationError(
            f"derived expression {expression!r} does not parse: {exc}") from None
    _validate(tree, expression)
    return tree


def compile_expression(expression: str) -> Callable[[Mapping[str, object]], object]:
    """Compile a derived-metric formula into an evaluator.

    Args:
        expression: Arithmetic formula over metric names, e.g.
            ``"100 * (mean_w_per_km / analytic_w_per_km - 1)"``.  Supported
            syntax: ``+ - * / // % **``, comparisons, ``and``/``or``/``not``,
            conditional expressions (``a if c else b``) and the functions in
            :data:`ALLOWED_FUNCTIONS`.

    Returns:
        A callable mapping a ``{metric_name: value}`` environment to the
        expression value.  Evaluation errors on missing names raise
        :class:`~repro.errors.ConfigurationError`; NaN inputs propagate.

    Raises:
        ConfigurationError: If the expression does not parse or uses syntax
            outside the whitelist (checked eagerly, at compile time).
    """
    tree = _validated_tree(expression)

    def evaluate(env: Mapping[str, object]):
        return _evaluate(tree, env, expression)

    return evaluate


def expression_names(expression: str) -> frozenset[str]:
    """Metric names a compiled expression reads (for load-time validation)."""
    return frozenset(node.id for node in ast.walk(_validated_tree(expression))
                     if isinstance(node, ast.Name)
                     and node.id not in ALLOWED_FUNCTIONS)
