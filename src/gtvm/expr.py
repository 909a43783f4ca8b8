"""Expression IR and its compiler for check() constraints and rule bodies.

The language is the closed subset the transformation corpus uses: literals,
variables, value()/name() reads, `+` (integer addition or string
concatenation) and `==`/`!=`. Undefined is modelled as ``None`` and renders
as the literal string "undef" when concatenated.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass

from .errors import ExecError

UNDEF = None
# str() converts integers of at most this many digits (Python 3.10.7 on;
# 0 is no limit), so an integer sum stays within it
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@dataclass(frozen=True)
class Lit:
    value: int | str | None  # None is the undef literal


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class ValueOf:
    arg: "Expr"


@dataclass(frozen=True)
class NameOf:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '==', '!='
    left: "Expr"
    right: "Expr"


Expr = Lit | Var | ValueOf | NameOf | BinOp


def expr_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (ValueOf, NameOf)):
        return expr_vars(e.arg)
    if isinstance(e, BinOp):
        return expr_vars(e.left) | expr_vars(e.right)
    return set()


def as_text(v) -> str:
    """``v`` as ``println`` and string ``+`` render it."""
    return "undef" if v is UNDEF else str(v)


def _plus(lv, rv):
    if type(lv) is int and type(rv) is int:  # a bool is no number
        n = lv + rv
        # 10**d has more than 3*d bits, so the power is only built for a sum
        # that may reach it
        if (_MAX_DIGITS and n.bit_length() > 3 * _MAX_DIGITS
                and abs(n) >= 10 ** _MAX_DIGITS):
            raise ExecError(f"integer sum has more than {_MAX_DIGITS} digits")
        return n
    if isinstance(lv, str) or isinstance(rv, str):
        return as_text(lv) + as_text(rv)
    raise ExecError(f"cannot add {as_text(lv)} and {as_text(rv)}")


_OPERATORS = {"==": operator.eq, "!=": operator.ne, "+": _plus}


def compile_expr(e: Expr):
    """``e`` as a function ``run(lookup, space)`` that evaluates it, where
    ``lookup(name)`` supplies variable values. The node kinds are told apart
    here, once, and not at each evaluation."""
    if isinstance(e, Lit):
        value = e.value
        return lambda lookup, space: value
    if isinstance(e, Var):
        name = e.name
        return lambda lookup, space: lookup(name)
    if isinstance(e, ValueOf):
        arg = compile_element(e.arg, "value()")
        return lambda lookup, space: space.value(arg(lookup, space))
    if isinstance(e, NameOf):
        arg = compile_element(e.arg, "name()")
        return lambda lookup, space: space.name(arg(lookup, space))
    if isinstance(e, BinOp):
        op = _OPERATORS.get(e.op)
        if op is None:
            raise ExecError(f"unknown operator {e.op!r}")
        left, right = compile_expr(e.left), compile_expr(e.right)
        return lambda lookup, space: op(left(lookup, space), right(lookup, space))
    raise ExecError(f"cannot evaluate {e!r}")


def holds(test, lookup, space) -> bool:
    """Whether ``test``, a compiled expression, evaluates to True; a check
    that fails to evaluate (an ``ExecError``, e.g. adding undef) does not
    hold."""
    try:
        return test(lookup, space) is True
    except ExecError:
        return False


def element_value(v, space, what: str) -> int:
    """``v``, which must be a live element; ``what`` names the reader in
    the error. ``True``, a comparison result, is an ``int`` equal to 1, yet
    no element."""
    if type(v) is not int or not space.is_live(v):
        raise ExecError(f"{what} needs a live element, got {as_text(v)}")
    return v


def compile_element(e: Expr, what: str):
    """``e`` compiled as by ``compile_expr``, to a function that also checks
    that the value is a live element; ``what`` names the reader in the
    error."""
    if isinstance(e, Var):
        name = e.name
        return lambda lookup, space: element_value(lookup(name), space, what)
    value = compile_expr(e)
    return lambda lookup, space: element_value(value(lookup, space), space, what)


def _comparison(e: Expr) -> bool:
    return isinstance(e, BinOp) and e.op != "+"


def render_expr(e: Expr) -> str:
    """Canonical VTCL text of an expression (for the pretty printer).

    Only the parentheses the grammar needs are printed: around a comparison
    that is an operand, and around a ``+`` that is the right operand of
    ``+``, since ``a + b + c`` parses as ``(a + b) + c``. The text therefore
    nests no deeper than any text that parses to ``e``.
    """
    if isinstance(e, Lit):
        if e.value is UNDEF:
            return "undef"
        if isinstance(e.value, str):
            escaped = e.value.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, ValueOf):
        return f"value({render_expr(e.arg)})"
    if isinstance(e, NameOf):
        return f"name({render_expr(e.arg)})"
    if isinstance(e, BinOp):
        left, right = render_expr(e.left), render_expr(e.right)
        if _comparison(e.left):
            left = f"({left})"
        if _comparison(e.right) or (e.op == "+" and isinstance(e.right, BinOp)):
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise AssertionError(e)
