"""RTL code generation from the mini-C AST.

The generated code deliberately follows the *naive* layouts the paper
attributes to the VPCC front-end, because those are exactly the shapes the
back-end optimizations (and code replication in particular) are designed
to clean up:

* ``while`` loops place the test at the top and an **unconditional jump at
  the end of the loop** (§3.1);
* ``for`` loops emit an **unconditional jump preceding the loop** to the
  termination test placed at the end (§3.1);
* ``if``/``else`` emits an **unconditional jump over the else-part**
  (§3.2);
* every ``return`` assigns the return-value register and **jumps to a
  shared epilogue** — the join that Table 2 shows replication splitting
  into separate returns.

Values are computed naively into fresh virtual registers; the optimizer
(instruction selection, CSE, dead-variable elimination, allocation) is
responsible for making the code good, as in VPO.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from ..cfg.block import Function, GlobalData, Program
from ..cfg.graph import build_function
from ..rtl.arith import eval_binop, eval_unop, wrap32
from ..rtl.expr import BinOp, Const, Expr, Local, Mem, Reg, Sym, UnOp
from ..rtl.insn import (
    Assign,
    Call,
    Compare,
    CondBranch,
    IndirectJump,
    Insn,
    Jump,
    Return,
)
from . import ast_nodes as ast
from .errors import CompileError
from .parser import parse
from .types import CHAR, INT, VOID, Type, ptr

__all__ = ["compile_c", "BUILTINS"]

# Functions provided by the runtime (the interpreter's "library").  The
# paper could not measure library routines either ("Library routines could
# not be measured since the source code was not available"); calls to these
# are executed natively and not counted.
BUILTINS = {
    "getchar": INT,
    "putchar": INT,
    "puts": INT,
    "printf": INT,
    "malloc": ptr(CHAR),
    "strlen": INT,
    "strcmp": INT,
    "strcpy": ptr(CHAR),
    "atoi": INT,
    "abs": INT,
    "exit": VOID,
    "memset": ptr(CHAR),
}

_COMPARISONS = {"<", "<=", ">", ">=", "==", "!="}
_NEGATED = {"<": ">=", ">=": "<", ">": "<=", "<=": ">", "==": "!=", "!=": "=="}


class _Var:
    """A resolved variable: where it lives and what type it has."""

    def __init__(self, kind: str, name: str, var_type: Type) -> None:
        self.kind = kind  # "local" or "global"
        self.name = name  # frame-slot or symbol name
        self.var_type = var_type

    def address(self) -> Expr:
        if self.kind == "local":
            return Local(self.name)
        return Sym(self.name)


class _FunctionCodegen:
    def __init__(self, unit_env: "_UnitEnv", definition: ast.FuncDef) -> None:
        self.env = unit_env
        self.definition = definition
        self.func = Function(definition.name, [p.name for p in definition.params])
        self.pairs: List[Tuple[Optional[str], Insn]] = []
        self.pending_labels: List[str] = []
        self.label_alias: Dict[str, str] = {}
        self.scopes: List[Dict[str, _Var]] = [{}]
        self.break_stack: List[str] = []
        self.continue_stack: List[str] = []
        self.user_labels: Dict[str, str] = {}
        self._vreg = 0
        self._label = 0
        self._slot_seq = 0
        self.epilogue = self.new_label()

    # --- small helpers ---------------------------------------------------------

    def new_vreg(self) -> Reg:
        self._vreg += 1
        return Reg("v", self._vreg)

    def new_label(self) -> str:
        self._label += 1
        return f"L{self.func.name}_{self._label}"

    def emit(self, insn: Insn) -> None:
        label = None
        if self.pending_labels:
            label = self.pending_labels[0]
            for extra in self.pending_labels[1:]:
                self.label_alias[extra] = label
            self.pending_labels = []
        self.pairs.append((label, insn))

    def place_label(self, label: str) -> None:
        # Aliases resolve later; two labels at the same point merge.
        self.pending_labels.append(label)

    def error(self, message: str, node) -> CompileError:
        return CompileError(message, getattr(node, "line", 0))

    # --- variables ---------------------------------------------------------------

    def declare_local(self, name: str, var_type: Type, node) -> _Var:
        if name in self.scopes[-1]:
            raise self.error(f"duplicate declaration of {name!r}", node)
        self._slot_seq += 1
        slot = name if name not in self.func.frame else f"{name}_{self._slot_seq}"
        size = var_type.size if var_type.kind == "array" else 4
        self.func.add_local(slot, size)
        var = _Var("local", slot, var_type)
        self.scopes[-1][name] = var
        return var

    def lookup(self, name: str, node) -> _Var:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        glob = self.env.globals.get(name)
        if glob is not None:
            return glob
        raise self.error(f"undeclared identifier {name!r}", node)

    # --- function body ---------------------------------------------------------------

    def generate(self) -> Function:
        # Parameters arrive in arg registers and are stored into frame
        # slots (promotion turns them back into registers when possible).
        for index, param in enumerate(self.definition.params):
            var = self.declare_local(param.name, param.param_type, self.definition)
            self.emit(Assign(Mem(Local(var.name), "L"), Reg("arg", index)))
        self.gen_block(self.definition.body)
        # Fall-off-the-end reaches the shared epilogue.
        self.place_label(self.epilogue)
        self.emit(Return())
        self._resolve_aliases()
        func = build_function(
            self.func.name, self.pairs, [p.name for p in self.definition.params]
        )
        func.frame = self.func.frame
        func.frame_size = self.func.frame_size
        return func

    def _resolve_aliases(self) -> None:
        if not self.label_alias:
            return

        def resolve(label: str) -> str:
            seen = set()
            while label in self.label_alias and label not in seen:
                seen.add(label)
                label = self.label_alias[label]
            return label

        for _, insn in self.pairs:
            for target in insn.branch_targets():
                final = resolve(target)
                if final != target:
                    insn.retarget(target, final)

    # --- statements ---------------------------------------------------------------

    def gen_block(self, block: ast.Block) -> None:
        if block.scoped:
            self.scopes.append({})
        for stmt in block.body:
            self.gen_statement(stmt)
        if block.scoped:
            self.scopes.pop()

    def gen_statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.gen_block(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self.rvalue(stmt.expr)
        elif isinstance(stmt, ast.VarDecl):
            self.gen_var_decl(stmt)
        elif isinstance(stmt, ast.If):
            self.gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self.gen_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self.gen_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self.gen_for(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value, _ = self.rvalue(stmt.value)
                self.emit(Assign(Reg("rv", 0), value))
            self.emit(Jump(self.epilogue))
        elif isinstance(stmt, ast.Break):
            if not self.break_stack:
                raise self.error("break outside a loop or switch", stmt)
            self.emit(Jump(self.break_stack[-1]))
        elif isinstance(stmt, ast.Continue):
            if not self.continue_stack:
                raise self.error("continue outside a loop", stmt)
            self.emit(Jump(self.continue_stack[-1]))
        elif isinstance(stmt, ast.Goto):
            self.emit(Jump(self._user_label(stmt.label)))
        elif isinstance(stmt, ast.Label):
            self.place_label(self._user_label(stmt.name))
            if stmt.stmt is not None:
                self.gen_statement(stmt.stmt)
        elif isinstance(stmt, ast.Switch):
            self.gen_switch(stmt)
        else:
            raise self.error(f"cannot generate statement {type(stmt).__name__}", stmt)

    def _user_label(self, name: str) -> str:
        if name not in self.user_labels:
            self.user_labels[name] = self.new_label()
        return self.user_labels[name]

    def gen_var_decl(self, stmt: ast.VarDecl) -> None:
        assert stmt.var_type is not None
        var_type = stmt.var_type
        if var_type.kind == "array" and var_type.length < 0:
            # Size from initializer.
            if stmt.init_list is not None:
                var_type = Type("array", var_type.base, len(stmt.init_list))
            elif stmt.init_string is not None:
                var_type = Type("array", var_type.base, len(stmt.init_string) + 1)
            else:
                raise self.error(f"array {stmt.name!r} has no size", stmt)
        var = self.declare_local(stmt.name, var_type, stmt)
        if stmt.init is not None:
            value, value_type = self.rvalue(stmt.init)
            self.store_scalar(var, value, value_type, stmt)
        elif stmt.init_list is not None:
            elem = var_type.element()
            for index, item in enumerate(stmt.init_list):
                value, _ = self.rvalue(item)
                addr = BinOp("+", Local(var.name), Const(index * elem.size))
                self.emit(Assign(Mem(addr, elem.width), value))
        elif stmt.init_string is not None:
            data = stmt.init_string + "\0"
            for index, ch in enumerate(data):
                addr = BinOp("+", Local(var.name), Const(index))
                self.emit(Assign(Mem(addr, "B"), Const(ord(ch))))

    def store_scalar(self, var: _Var, value: Expr, value_type: Type, node) -> None:
        if not var.var_type.is_scalar():
            raise self.error(f"cannot assign to {var.var_type}", node)
        width = "L" if var.kind == "local" else var.var_type.width
        if var.var_type.kind == "char":
            value = self.force_reg(BinOp("&", self.force_reg(value), Const(0xFF)))
        self.emit(Assign(Mem(var.address(), width), value))

    # --- control flow ---------------------------------------------------------------

    def gen_if(self, stmt: ast.If) -> None:
        end = self.new_label()
        if stmt.otherwise is None:
            self.branch_if_false(stmt.cond, end)
            self.gen_statement(stmt.then)
        else:
            otherwise = self.new_label()
            self.branch_if_false(stmt.cond, otherwise)
            self.gen_statement(stmt.then)
            self.emit(Jump(end))  # the §3.2 jump over the else-part
            self.place_label(otherwise)
            self.gen_statement(stmt.otherwise)
        self.place_label(end)

    def gen_while(self, stmt: ast.While) -> None:
        test = self.new_label()
        exit_label = self.new_label()
        self.place_label(test)
        self.branch_if_false(stmt.cond, exit_label)
        self.break_stack.append(exit_label)
        self.continue_stack.append(test)
        self.gen_statement(stmt.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        self.emit(Jump(test))  # the §3.1 jump at the end of the loop
        self.place_label(exit_label)

    def gen_do_while(self, stmt: ast.DoWhile) -> None:
        body = self.new_label()
        cont = self.new_label()
        exit_label = self.new_label()
        self.place_label(body)
        self.break_stack.append(exit_label)
        self.continue_stack.append(cont)
        self.gen_statement(stmt.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        self.place_label(cont)
        self.branch_if_true(stmt.cond, body)
        self.place_label(exit_label)

    def gen_for(self, stmt: ast.For) -> None:
        body = self.new_label()
        cont = self.new_label()
        test = self.new_label()
        exit_label = self.new_label()
        self.scopes.append({})
        if stmt.init is not None:
            self.gen_statement(stmt.init)
        self.emit(Jump(test))  # the §3.1 jump preceding the loop
        self.place_label(body)
        self.break_stack.append(exit_label)
        self.continue_stack.append(cont)
        if stmt.body is not None:
            self.gen_statement(stmt.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        self.place_label(cont)
        if stmt.step is not None:
            self.rvalue(stmt.step)
        self.place_label(test)
        if stmt.cond is not None:
            self.branch_if_true(stmt.cond, body)
        else:
            self.emit(Jump(body))
        self.place_label(exit_label)
        self.scopes.pop()

    def gen_switch(self, stmt: ast.Switch) -> None:
        scrutinee, _ = self.rvalue(stmt.scrutinee)
        scrutinee = self.force_reg(scrutinee)
        end = self.new_label()
        default_label = end
        labelled: List[Tuple[int, str]] = []
        case_labels: List[str] = []
        for case in stmt.cases:
            label = self.new_label()
            case_labels.append(label)
            if case.value is None:
                default_label = label
            else:
                labelled.append((case.value, label))

        values = [v for v, _ in labelled]
        dense = (
            len(values) >= 4
            and len(set(values)) == len(values)
            and max(values) - min(values) + 1 <= 3 * len(values)
        )
        if dense:
            low, high = min(values), max(values)
            index = self.new_vreg()
            self.emit(Assign(index, BinOp("-", scrutinee, Const(low))))
            self.emit(Compare(index, Const(0)))
            self.emit(CondBranch("<", default_label))
            self.emit(Compare(index, Const(high - low)))
            self.emit(CondBranch(">", default_label))
            table = {v - low: lab for v, lab in labelled}
            targets = [table.get(i, default_label) for i in range(high - low + 1)]
            self.emit(IndirectJump(index, targets))
        else:
            for value, label in labelled:
                self.emit(Compare(scrutinee, Const(value)))
                self.emit(CondBranch("==", label))
            self.emit(Jump(default_label))

        self.break_stack.append(end)
        for case, label in zip(stmt.cases, case_labels):
            self.place_label(label)
            for inner in case.body:
                self.gen_statement(inner)
        self.break_stack.pop()
        self.place_label(end)

    # --- conditions -------------------------------------------------------------------

    def branch_if_true(self, cond: ast.Expr, target: str) -> None:
        self._branch(cond, target, True)

    def branch_if_false(self, cond: ast.Expr, target: str) -> None:
        self._branch(cond, target, False)

    def _branch(self, cond: ast.Expr, target: str, when_true: bool) -> None:
        if isinstance(cond, ast.Unary) and cond.op == "!":
            self._branch(cond.operand, target, not when_true)
            return
        if isinstance(cond, ast.Binary) and cond.op in ("&&", "||"):
            is_and = cond.op == "&&"
            if is_and == when_true:
                # Branching when both (resp. either) — needs a short-circuit
                # label for the first operand.
                skip = self.new_label()
                self._branch(cond.left, skip, not when_true)
                self._branch(cond.right, target, when_true)
                self.place_label(skip)
            else:
                self._branch(cond.left, target, when_true)
                self._branch(cond.right, target, when_true)
            return
        if isinstance(cond, ast.Binary) and cond.op in _COMPARISONS:
            left, left_type = self.rvalue(cond.left)
            right, _ = self.rvalue(cond.right)
            self.emit(Compare(left, right))
            rel = cond.op if when_true else _NEGATED[cond.op]
            self.emit(CondBranch(rel, target))
            return
        value, _ = self.rvalue(cond)
        self.emit(Compare(value, Const(0)))
        self.emit(CondBranch("!=" if when_true else "==", target))

    # --- expressions --------------------------------------------------------------------

    def force_reg(self, expr: Expr) -> Expr:
        """Materialize non-leaf expressions into a fresh virtual register."""
        if isinstance(expr, (Reg, Const)):
            return expr
        reg = self.new_vreg()
        self.emit(Assign(reg, expr))
        return reg

    def rvalue(self, expr: ast.Expr) -> Tuple[Expr, Type]:
        """Generate code computing ``expr``; return (leaf RTL expr, type)."""
        if isinstance(expr, ast.IntLit):
            return Const(expr.value), INT
        if isinstance(expr, ast.StrLit):
            name = self.env.program.intern_string(expr.value)
            return self.force_reg(Sym(name)), ptr(CHAR)
        if isinstance(expr, ast.Ident):
            var = self.lookup(expr.name, expr)
            if var.var_type.kind == "array":
                return self.force_reg(var.address()), var.var_type.decay()
            width = "L" if var.kind == "local" else var.var_type.width
            return self.force_reg(Mem(var.address(), width)), var.var_type
        if isinstance(expr, ast.Unary):
            return self.gen_unary(expr)
        if isinstance(expr, ast.Binary):
            return self.gen_binary(expr)
        if isinstance(expr, ast.AssignExpr):
            return self.gen_assign(expr)
        if isinstance(expr, ast.Ternary):
            return self.gen_ternary(expr)
        if isinstance(expr, ast.CallExpr):
            return self.gen_call(expr)
        if isinstance(expr, (ast.Index, ast.Deref)):
            addr, value_type = self.lvalue(expr)
            if value_type.kind == "array":
                return self.force_reg(addr), value_type.decay()
            return self.force_reg(Mem(addr, value_type.width)), value_type
        if isinstance(expr, ast.AddrOf):
            addr, value_type = self.lvalue(expr.operand)
            return self.force_reg(addr), ptr(value_type)
        if isinstance(expr, ast.IncDec):
            return self.gen_incdec(expr)
        raise self.error(f"cannot evaluate {type(expr).__name__}", expr)

    def gen_unary(self, expr: ast.Unary) -> Tuple[Expr, Type]:
        if expr.op == "!":
            # !x is (x == 0) as a value.
            result = self.new_vreg()
            done = self.new_label()
            self.emit(Assign(result, Const(1)))
            value, _ = self.rvalue(expr.operand)
            self.emit(Compare(value, Const(0)))
            self.emit(CondBranch("==", done))
            self.emit(Assign(result, Const(0)))
            self.place_label(done)
            return result, INT
        value, value_type = self.rvalue(expr.operand)
        return self.force_reg(UnOp(expr.op, value)), value_type

    def gen_binary(self, expr: ast.Binary) -> Tuple[Expr, Type]:
        op = expr.op
        if op == ",":
            self.rvalue(expr.left)
            return self.rvalue(expr.right)
        if op in ("&&", "||") or op in _COMPARISONS:
            # Comparison / logical connective as a value: 0 or 1.
            result = self.new_vreg()
            done = self.new_label()
            self.emit(Assign(result, Const(1)))
            self._branch(expr, done, True)
            self.emit(Assign(result, Const(0)))
            self.place_label(done)
            return result, INT
        left, left_type = self.rvalue(expr.left)
        right, right_type = self.rvalue(expr.right)
        # Pointer arithmetic scales by the element size.
        if op == "+" and left_type.is_pointerish() and not right_type.is_pointerish():
            right = self._scaled(right, left_type.decay().element().size)
            return self.force_reg(BinOp("+", left, right)), left_type.decay()
        if op == "+" and right_type.is_pointerish():
            left = self._scaled(left, right_type.decay().element().size)
            return self.force_reg(BinOp("+", left, right)), right_type.decay()
        if op == "-" and left_type.is_pointerish() and right_type.is_pointerish():
            diff = self.force_reg(BinOp("-", left, right))
            size = left_type.decay().element().size
            if size != 1:
                diff = self.force_reg(BinOp("/", diff, Const(size)))
            return diff, INT
        if op == "-" and left_type.is_pointerish():
            right = self._scaled(right, left_type.decay().element().size)
            return self.force_reg(BinOp("-", left, right)), left_type.decay()
        result_type = INT
        return self.force_reg(BinOp(op, left, right)), result_type

    def _scaled(self, value: Expr, size: int) -> Expr:
        if size == 1:
            return value
        if isinstance(value, Const):
            return Const(value.value * size)
        return self.force_reg(BinOp("*", value, Const(size)))

    def gen_ternary(self, expr: ast.Ternary) -> Tuple[Expr, Type]:
        result = self.new_vreg()
        otherwise = self.new_label()
        done = self.new_label()
        self.branch_if_false(expr.cond, otherwise)
        then_value, then_type = self.rvalue(expr.then)
        self.emit(Assign(result, then_value))
        self.emit(Jump(done))  # §3.2: conditional expressions jump too
        self.place_label(otherwise)
        else_value, _ = self.rvalue(expr.otherwise)
        self.emit(Assign(result, else_value))
        self.place_label(done)
        return result, then_type

    def gen_call(self, expr: ast.CallExpr) -> Tuple[Expr, Type]:
        name = expr.func
        user = self.env.function_types.get(name)
        if user is None and name not in BUILTINS:
            raise self.error(f"call to undeclared function {name!r}", expr)
        if user is not None and len(expr.args) != len(user[1]):
            raise self.error(
                f"{name}() takes {len(user[1])} arguments, got {len(expr.args)}",
                expr,
            )
        # Evaluate every argument *before* loading the arg registers, so a
        # nested call cannot clobber them.
        values = [self.force_reg(self.rvalue(arg)[0]) for arg in expr.args]
        for index, value in enumerate(values):
            self.emit(Assign(Reg("arg", index), value))
        self.emit(Call(name, len(values)))
        return_type = user[0] if user is not None else BUILTINS[name]
        if return_type.kind == "void":
            return Const(0), INT
        result = self.new_vreg()
        self.emit(Assign(result, Reg("rv", 0)))
        return result, return_type

    def gen_assign(self, expr: ast.AssignExpr) -> Tuple[Expr, Type]:
        addr, target_type = self.lvalue(expr.target)
        if not target_type.is_scalar():
            raise self.error(f"cannot assign to a value of type {target_type}", expr)
        addr = self.force_reg(addr) if not isinstance(addr, (Local, Sym, Reg)) else addr
        if expr.op == "=":
            value, _ = self.rvalue(expr.value)
        else:
            op = expr.op[:-1]
            current = self.force_reg(Mem(addr, target_type.width))
            rhs, rhs_type = self.rvalue(expr.value)
            if (
                op in ("+", "-")
                and target_type.kind == "ptr"
            ):
                rhs = self._scaled(rhs, target_type.element().size)
            value = self.force_reg(BinOp(op, current, rhs))
        value = self.force_reg(value)
        if target_type.kind == "char":
            # Stores of width B truncate naturally; the mask matters only
            # for char-typed *locals* kept in 4-byte slots.
            if isinstance(addr, Local):
                value = self.force_reg(BinOp("&", value, Const(0xFF)))
                self.emit(Assign(Mem(addr, "L"), value))
                return value, target_type
        self.emit(Assign(Mem(addr, target_type.width), value))
        return value, target_type

    def gen_incdec(self, expr: ast.IncDec) -> Tuple[Expr, Type]:
        addr, target_type = self.lvalue(expr.target)
        addr = self.force_reg(addr) if not isinstance(addr, (Local, Sym, Reg)) else addr
        width = target_type.width
        is_local_char = target_type.kind == "char" and isinstance(addr, Local)
        if is_local_char:
            width = "L"
        step = 1
        if target_type.kind == "ptr":
            step = target_type.element().size
        old = self.force_reg(Mem(addr, width))
        op = "+" if expr.op == "++" else "-"
        new = self.force_reg(BinOp(op, old, Const(step)))
        if is_local_char or target_type.kind == "char":
            new = self.force_reg(BinOp("&", new, Const(0xFF)))
        self.emit(Assign(Mem(addr, width), new))
        return (new if expr.prefix else old), target_type

    # --- lvalues -----------------------------------------------------------------------

    def lvalue(self, expr: ast.Expr) -> Tuple[Expr, Type]:
        """Return (address expression, type-at-that-address)."""
        if isinstance(expr, ast.Ident):
            var = self.lookup(expr.name, expr)
            if var.var_type.kind == "char" and var.kind == "local":
                # char locals live in 4-byte slots; gen_assign handles the
                # masking, loads use width L via the type's local rules.
                pass
            return var.address(), var.var_type
        if isinstance(expr, ast.Deref):
            value, value_type = self.rvalue(expr.operand)
            if not value_type.is_pointerish():
                raise self.error("cannot dereference a non-pointer", expr)
            return value, value_type.decay().element()
        if isinstance(expr, ast.Index):
            base, base_type = self.rvalue(expr.base)
            if not base_type.is_pointerish():
                raise self.error("cannot index a non-pointer", expr)
            elem = base_type.decay().element()
            index, _ = self.rvalue(expr.index)
            offset = self._scaled(index, elem.size)
            return BinOp("+", base, offset), elem
        raise self.error(f"{type(expr).__name__} is not an lvalue", expr)


class _UnitEnv:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.globals: Dict[str, _Var] = {}
        self.function_types: Dict[str, Tuple[Type, List[Type]]] = {}


def _const_eval(expr: ast.Expr, env: _UnitEnv) -> Tuple[int, Optional[str]]:
    """Evaluate a global initializer: (value, relocation symbol or None)."""
    if isinstance(expr, ast.IntLit):
        return wrap32(expr.value), None  # as ``Const`` takes a literal
    if isinstance(expr, ast.StrLit):
        return 0, env.program.intern_string(expr.value)
    if isinstance(expr, ast.Unary) and expr.op == "-":
        value, reloc = _const_eval(expr.operand, env)
        if reloc is not None:
            raise CompileError("cannot negate an address in an initializer")
        return eval_unop("-", value), None
    if isinstance(expr, ast.Binary):
        left, lr = _const_eval(expr.left, env)
        right, rr = _const_eval(expr.right, env)
        if lr is not None or rr is not None:
            raise CompileError("address arithmetic in initializers unsupported")
        return eval_binop(expr.op, left, right), None
    raise CompileError("global initializers must be constant expressions")


def _encode_global(decl: ast.GlobalDecl, env: _UnitEnv) -> GlobalData:
    var_type = decl.var_type
    if var_type.kind == "array" and var_type.length < 0:
        if decl.init_list is not None:
            var_type = Type("array", var_type.base, len(decl.init_list))
        elif decl.init_string is not None:
            var_type = Type("array", var_type.base, len(decl.init_string) + 1)
        else:
            raise CompileError(f"global array {decl.name!r} has no size", decl.line)
        decl.var_type = var_type

    size = var_type.size
    data = bytearray(size)
    relocs: List[Tuple[int, str]] = []
    if decl.init is not None:
        value, reloc = _const_eval(decl.init, env)
        if reloc is not None:
            relocs.append((0, reloc))
        else:
            if var_type.width == "B":
                data[0] = value & 0xFF
            else:
                data[0:4] = struct.pack("<i", value)
    elif decl.init_list is not None:
        elem = var_type.element()
        if len(decl.init_list) > var_type.length:
            raise CompileError(f"too many initializers for {decl.name!r}", decl.line)
        for index, item in enumerate(decl.init_list):
            value, reloc = _const_eval(item, env)
            offset = index * elem.size
            if reloc is not None:
                relocs.append((offset, reloc))
            elif elem.size == 1:
                data[offset] = value & 0xFF
            else:
                data[offset : offset + 4] = struct.pack("<i", value)
    elif decl.init_string is not None:
        payload = decl.init_string.encode("latin-1") + b"\x00"
        if len(payload) > size:
            raise CompileError(f"string too long for {decl.name!r}", decl.line)
        data[: len(payload)] = payload
    return GlobalData(decl.name, size, bytes(data), var_type.width, relocs)


def compile_c(source: str) -> Program:
    """Compile mini-C source text into an (unoptimized) RTL program."""
    from ..obs import active as _active_observer

    obs = _active_observer()
    with obs.span("frontend.parse", bytes=len(source)):
        unit = parse(source)
    with obs.span("frontend.codegen") as codegen_span:
        program = Program()
        env = _UnitEnv(program)

        for decl in unit.globals:
            data = _encode_global(decl, env)
            program.add_global(data)
            env.globals[decl.name] = _Var("global", decl.name, decl.var_type)

        for definition in unit.functions:
            env.function_types[definition.name] = (
                definition.return_type,
                [p.param_type for p in definition.params],
            )
        for definition in unit.functions:
            codegen = _FunctionCodegen(env, definition)
            program.add_function(codegen.generate())
        codegen_span.set(
            functions=len(program.functions), globals=len(program.globals)
        )
    return program
