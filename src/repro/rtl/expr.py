"""RTL expression trees.

Expressions are immutable and hash-consed (one live node per structure, so
``==`` and ``hash`` are identity) and shared freely between instructions.
This mirrors the register transfer lists (RTLs) of VPO, where an instruction
is an assignment of an expression to a register or memory cell.

The vocabulary follows the paper's notation:

* ``d[0]``, ``a[6]``, ``r[8]`` ... machine registers (:class:`Reg`)
* ``x.``                        ... address of global symbol ``x`` (:class:`Sym`)
* ``a[6]+i.``                   ... address of local ``i`` (:class:`Local`)
* ``L[addr]`` / ``B[addr]``     ... memory reference (:class:`Mem`)
* constants, binary and unary operators.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, FrozenSet, Iterator, Tuple

__all__ = [
    "Expr",
    "Const",
    "Sym",
    "Local",
    "Reg",
    "Mem",
    "BinOp",
    "UnOp",
    "walk",
    "subst",
    "regs_in",
    "reg_set",
    "mems_in",
    "locals_in",
    "map_expr",
]

# Widths of memory references, in bytes.  The letters follow the paper's
# notation for the 68020: B = byte, W = 16-bit word, L = 32-bit long.
WIDTH_BYTES: Dict[str, int] = {"B": 1, "W": 2, "L": 4}

# Binary operators understood by the RTL language.  Comparison is not an
# operator here: it is expressed by the Compare instruction that sets NZ.
BINARY_OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>")
UNARY_OPS = ("-", "~")


class _Ref(weakref.ref):
    __slots__ = ("key",)  # an intern-table entry knows its own key


#: Every live node, weakly, keyed by its class and fields: children by
#: identity, numbers by type and value (``Const(1)``, ``Const(1.0)`` and
#: ``Const(True)`` are three nodes).  No lock: no thread builds RTL.
_TABLE: Dict[tuple, _Ref] = {}


def _forget(ref: _Ref) -> None:
    if _TABLE.get(ref.key) is ref:  # not yet replaced by a newer node
        del _TABLE[ref.key]


def _intern(cls: type, key: tuple, *values: object) -> "Expr":
    """The live node for ``key``; on a miss, ``cls`` filled with ``values``."""
    ref = _TABLE.get(key)
    node = ref and ref()
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(node, name, value)
        ref = _TABLE[key] = _Ref(node, _forget)
        ref.key = key
    return node


class Expr:
    """Base class of all RTL expressions; a subclass's slots are its fields."""

    __slots__ = ("__weakref__", "_regs")  # _regs: the reg_set memo

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # unpickling re-interns; copies are the node
        cls = type(self)
        return cls, tuple(getattr(self, name) for name in cls.__slots__)

    def __copy__(self, memo: object = None) -> "Expr":
        return self

    __deepcopy__ = __copy__


class Const(Expr):
    """An integer constant."""

    __slots__ = ("value",)

    def __new__(cls, value: int) -> "Const":
        return _intern(cls, (cls, value.__class__, value), value)

    def __repr__(self) -> str:
        return f"Const({self.value})"


class Sym(Expr):
    """The address of a global symbol (printed ``name.`` as in the paper)."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Sym":
        return _intern(cls, (cls, name), name)

    def __repr__(self) -> str:
        return f"Sym({self.name!r})"


class Local(Expr):
    """The address of a local (frame) slot.

    The paper prints locals as frame-pointer relative addresses such as
    ``a[6]+i.``; we keep the slot symbolic so that the frame layout can be
    assigned late (by the code generator) and resolved by the interpreter.
    """

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Local":
        return _intern(cls, (cls, name), name)

    def __repr__(self) -> str:
        return f"Local({self.name!r})"


class Reg(Expr):
    """A register: ``bank`` selects the register file, ``index`` the member.

    Banks in use:

    * ``"v"``   -- virtual registers produced by the front-end (unbounded)
    * ``"d"``   -- 68020 data registers
    * ``"a"``   -- 68020 address registers
    * ``"r"``   -- SPARC integer registers
    * ``"arg"`` -- argument-passing registers of the calling convention
    * ``"rv"``  -- the return-value register
    * ``"cc"``  -- the condition-code register (printed ``NZ``)
    """

    __slots__ = ("bank", "index")

    def __new__(cls, bank: str, index: int) -> "Reg":
        return _intern(cls, (cls, bank, index.__class__, index), bank, index)

    def __repr__(self) -> str:
        return f"Reg({self.bank!r},{self.index})"


class Mem(Expr):
    """A memory reference of the given width whose address is ``addr``."""

    __slots__ = ("addr", "width")

    def __new__(cls, addr: Expr, width: str) -> "Mem":
        return _intern(cls, (cls, addr, width), addr, width)

    def children(self) -> Tuple[Expr, ...]:
        return (self.addr,)

    def __repr__(self) -> str:
        return f"Mem({self.addr!r},{self.width!r})"


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __new__(cls, op: str, left: Expr, right: Expr) -> "BinOp":
        return _intern(cls, (cls, op, left, right), op, left, right)

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"BinOp({self.op!r},{self.left!r},{self.right!r})"


class UnOp(Expr):
    __slots__ = ("op", "operand")

    def __new__(cls, op: str, operand: Expr) -> "UnOp":
        return _intern(cls, (cls, op, operand), op, operand)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"UnOp({self.op!r},{self.operand!r})"


# The condition-code register used by Compare / CondBranch.
NZ = Reg("cc", 0)


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def regs_in(expr: Expr) -> Iterator[Reg]:
    """Yield every register occurring in ``expr``."""
    for node in walk(expr):
        if isinstance(node, Reg):
            yield node


_NO_REGS: FrozenSet["Reg"] = frozenset()


def reg_set(expr: Expr) -> FrozenSet[Reg]:
    """The registers occurring in ``expr``, memoized on the node.

    Expressions are immutable and interned, so the set is computed once
    per node and kept in its ``_regs`` slot (never part of ``repr``).
    Every expression and cloned instruction holding the node shares it.
    """
    try:
        return expr._regs
    except AttributeError:
        pass
    if isinstance(expr, Reg):
        regs: FrozenSet[Reg] = frozenset((expr,))
    else:
        children = expr.children()
        if not children:
            regs = _NO_REGS
        elif len(children) == 1:
            regs = reg_set(children[0])
        else:
            regs = reg_set(children[0]).union(*map(reg_set, children[1:]))
    object.__setattr__(expr, "_regs", regs)
    return regs


def mems_in(expr: Expr) -> Iterator[Mem]:
    """Yield every memory reference occurring in ``expr``."""
    for node in walk(expr):
        if isinstance(node, Mem):
            yield node


def locals_in(expr: Expr) -> Iterator[Local]:
    """Yield every local-address leaf occurring in ``expr``."""
    for node in walk(expr):
        if isinstance(node, Local):
            yield node


def map_expr(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``expr`` bottom-up, applying ``fn`` to every node.

    ``fn`` receives each node *after* its children have been rewritten and
    may return a replacement node (or the node unchanged).
    """
    if isinstance(expr, Mem):
        rebuilt: Expr = Mem(map_expr(expr.addr, fn), expr.width)
    elif isinstance(expr, BinOp):
        rebuilt = BinOp(expr.op, map_expr(expr.left, fn), map_expr(expr.right, fn))
    elif isinstance(expr, UnOp):
        rebuilt = UnOp(expr.op, map_expr(expr.operand, fn))
    else:
        rebuilt = expr
    return fn(rebuilt)


def subst(expr: Expr, mapping: Dict[Expr, Expr]) -> Expr:
    """Replace occurrences of keys of ``mapping`` in ``expr`` by their values.

    Matching is performed bottom-up by identity (that is, structurally:
    nodes are interned), so substituting
    ``{Reg('v', 1): Const(3)}`` rewrites every use of the virtual register.
    """

    def replace(node: Expr) -> Expr:
        return mapping.get(node, node)

    return map_expr(expr, replace)
