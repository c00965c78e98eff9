"""32-bit two's-complement arithmetic shared by the constant folder and the
RTL interpreter.

Semantics follow C on the modelled machines: 32-bit wrap-around for
add/sub/mul, truncation toward zero for division and remainder, shift
counts masked to 5 bits.  Every operand is a signed 32-bit word: a
:class:`~repro.rtl.expr.Const` stores its ``int`` as :func:`wrap32` of
it (so a literal is taken modulo 2^32), loads sign-fix, and every
result below is wrapped.

Shift-count model
-----------------
Shift counts are reduced modulo 32 (``count & SHIFT_MASK``) before the
shift — the SPARC's 32-bit shift semantics, and what every x86-family
machine does too.  ``x << 32 == x``, ``x << 33 == x << 1``, and a
negative count is first wrapped (``-1 & 31 == 31``).  This single model
is shared by *every* consumer of :func:`eval_binop` — the front-end's
literal folder, ``const_fold``, CSE's value numbering, and the EASE
interpreter — so compile-time folding and run-time evaluation agree by
construction and can never be a translation-validation divergence.

The real MC68020 masks shift counts modulo 64 instead, so ``x << 32``
is 0 there; C leaves over-wide shifts undefined, so a C compiler may
pick either.  This repro deliberately models mod-32 *uniformly*, on
every target, because a target-dependent fold would make optimized
programs behaviorally target-dependent, which the paper's measurements
(and our differential oracle) assume away.
"""

from __future__ import annotations

__all__ = ["wrap32", "eval_binop", "eval_unop", "compare_relation", "SHIFT_MASK"]

_MASK = 0xFFFFFFFF

#: Shift counts are reduced ``count & SHIFT_MASK`` (the mod-32 model).
SHIFT_MASK = 31


def wrap32(value: int) -> int:
    """Wrap a Python int to signed 32-bit two's complement."""
    value &= _MASK
    if value >= 0x80000000:
        value -= 0x100000000
    return value


def _div_trunc(a: int, b: int) -> int:
    """C-style integer division (truncation toward zero)."""
    if b == 0:
        raise ZeroDivisionError("RTL division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q


def _rem_trunc(a: int, b: int) -> int:
    """C-style remainder: a - (a/b)*b."""
    return a - _div_trunc(a, b) * b


def eval_binop(op: str, a: int, b: int) -> int:
    """Evaluate a binary RTL operator on 32-bit values."""
    if op == "+":
        return wrap32(a + b)
    if op == "-":
        return wrap32(a - b)
    if op == "*":
        return wrap32(a * b)
    if op == "/":
        return wrap32(_div_trunc(a, b))
    if op == "%":
        return wrap32(_rem_trunc(a, b))
    if op == "&":
        return wrap32(a & b)
    if op == "|":
        return wrap32(a | b)
    if op == "^":
        return wrap32(a ^ b)
    if op == "<<":
        return wrap32(a << (b & SHIFT_MASK))
    if op == ">>":
        # Arithmetic shift right (the values are signed).
        return wrap32(a >> (b & SHIFT_MASK))
    raise ValueError(f"unknown binary operator {op!r}")


def eval_unop(op: str, a: int) -> int:
    """Evaluate a unary RTL operator on a 32-bit value."""
    if op == "-":
        return wrap32(-a)
    if op == "~":
        return wrap32(~a)
    raise ValueError(f"unknown unary operator {op!r}")


def compare_relation(rel: str, a: int, b: int) -> bool:
    """Evaluate ``a rel b`` for a branch relation."""
    if rel == "<":
        return a < b
    if rel == "<=":
        return a <= b
    if rel == ">":
        return a > b
    if rel == ">=":
        return a >= b
    if rel == "==":
        return a == b
    if rel == "!=":
        return a != b
    raise ValueError(f"unknown relation {rel!r}")
