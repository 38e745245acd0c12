"""AST -> IR lowering with type checking.

This is minic's semantic analysis and code lowering in one pass, the
classic small-compiler structure: expressions produce typed values in
virtual registers, lvalues resolve to register or memory locations, and
control flow becomes a basic-block graph.

Scalar locals live in virtual registers (the register allocator decides
their fate); arrays, structs and address-taken locals live in stack
slots.  Globals are referenced symbolically so each backend can choose
its addressing strategy (gp-relative on DLXe, constant pools on D16).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..isa.operations import Cond
from . import ast_nodes as ast
from .ir import (AddrGlobal, AddrStack, Bin, Block, CJump, CallInst, Cmp,
                 Const, Cvt, FCmp, FConst, FLoad, FStore, Function,
                 GlobalData, Jump, Load, Module, Move, Ret, StackSlot, Store,
                 Un, VReg)
from .types import (ArrayType, CHAR, DOUBLE, DoubleType, FLOAT, FloatType,
                    INT, PointerType, StructType, Type, TypeError_, VOID,
                    VoidType, common_arithmetic, decay, ir_class, pointer_to)


class CompileError(Exception):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


#: Built-in functions lowered to trap sequences by the backends.
INTRINSICS: dict[str, tuple[Type, list[Type]]] = {
    "putchar": (INT, [INT]),
    "getchar": (INT, []),
    "exit": (VOID, [INT]),
    "sbrk": (INT, [INT]),
}

_CMP_OPS = {"==": Cond.EQ, "!=": Cond.NE, "<": Cond.LT, ">": Cond.GT,
            "<=": Cond.LE, ">=": Cond.GE}
_UNSIGNED_COND = {Cond.LT: Cond.LTU, Cond.GT: Cond.GTU, Cond.LE: Cond.LEU,
                  Cond.GE: Cond.GEU, Cond.EQ: Cond.EQ, Cond.NE: Cond.NE}

_INT_BIN = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
            "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "shra"}
_FLT_BIN = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}


@dataclass
class Value:
    """An rvalue: a virtual register plus its (decayed) type."""

    vreg: VReg
    ty: Type


@dataclass
class RegLVal:
    vreg: VReg
    ty: Type


@dataclass
class MemLVal:
    base: object           # VReg | StackSlot | str (global name)
    offset: int
    ty: Type


@dataclass
class _LocalVar:
    ty: Type
    storage: object        # VReg (scalar) or StackSlot


def lower_program(program: ast.Program) -> Module:
    """Lower a parsed program into an IR module."""
    return _ModuleLowering(program).run()


class _ModuleLowering:
    def __init__(self, program: ast.Program):
        self.program = program
        self.module = Module()
        self.signatures: dict[str, tuple[Type, list[Type]]] = dict(INTRINSICS)
        self.global_types: dict[str, Type] = {}
        self.string_labels: dict[str, str] = {}
        self.next_string = 0

    def run(self) -> Module:
        for func in self.program.functions:
            if func.name in self.signatures:
                raise CompileError(f"duplicate function {func.name!r}",
                                   func.line)
            self.signatures[func.name] = (func.return_type,
                                          [p.type for p in func.params])
        for decl in self.program.globals:
            self._lower_global(decl)
        for func in self.program.functions:
            lowering = _FuncLowering(self, func)
            self.module.functions.append(lowering.run())
        return self.module

    # ------------------------------------------------------------ globals

    def intern_string(self, text: str) -> str:
        """Return the label of a global holding ``text`` NUL-terminated."""
        if text in self.string_labels:
            return self.string_labels[text]
        label = f"Lstr{self.next_string}"
        self.next_string += 1
        data = text.encode("latin-1") + b"\0"
        self.module.globals.append(
            GlobalData(name=label, size=len(data), align=1,
                       init=[("bytes", data)]))
        self.string_labels[text] = label
        return label

    def _lower_global(self, decl: ast.GlobalDecl) -> None:
        if decl.name in self.global_types or decl.name in self.signatures:
            raise CompileError(f"duplicate global {decl.name!r}", decl.line)
        ty = decl.type
        if isinstance(ty, ArrayType) and ty.length == 0:
            ty = self._infer_array_length(ty, decl.init, decl.line)
            decl.type = ty
        self.global_types[decl.name] = ty
        init = self._global_init(ty, decl.init, decl.line)
        self.module.globals.append(
            GlobalData(name=decl.name, size=max(ty.size, 1),
                       align=ty.align, init=init))

    def _infer_array_length(self, ty: ArrayType, init, line: int) -> ArrayType:
        if isinstance(init, ast.StrLit):
            return ArrayType(element=ty.element, length=len(init.value) + 1)
        if isinstance(init, list):
            return ArrayType(element=ty.element, length=len(init))
        raise CompileError("unsized array needs an initializer", line)

    def _global_init(self, ty: Type, init, line: int) -> list[tuple]:
        if init is None:
            return [("space", max(ty.size, 1))]
        if isinstance(ty, ArrayType):
            return self._array_init(ty, init, line)
        if isinstance(ty, StructType):
            raise CompileError("struct globals cannot have initializers",
                               line)
        value = self._const_value(init, line)
        return self._scalar_init(ty, value, line)

    def _scalar_init(self, ty: Type, value, line: int) -> list[tuple]:
        if isinstance(value, tuple) and value[0] == "sym":
            if not ty.is_pointer:
                raise CompileError("address initializer for non-pointer",
                                   line)
            return [("sym", value[1])]
        if isinstance(ty, FloatType):
            bits = struct.unpack("<I", struct.pack("<f", float(value)))[0]
            return [("word", bits)]
        if isinstance(ty, DoubleType):
            lo, hi = struct.unpack("<II", struct.pack("<d", float(value)))
            return [("word", lo), ("word", hi)]
        if ty.is_pointer and value == 0:
            return [("word", 0)]
        if not ty.is_integer and not ty.is_pointer:
            raise CompileError(f"cannot initialize {ty} with a constant",
                               line)
        value = int(value)
        if ty.size == 1:
            return [("bytes", bytes([value & 0xFF]))]
        return [("word", value & 0xFFFFFFFF)]

    def _array_init(self, ty: ArrayType, init, line: int) -> list[tuple]:
        if isinstance(init, ast.StrLit):
            if not isinstance(ty.element, type(CHAR)):
                raise CompileError("string initializer for non-char array",
                                   line)
            data = init.value.encode("latin-1") + b"\0"
            if len(data) > ty.size:
                raise CompileError("string longer than array", line)
            out = [("bytes", data)]
            if ty.size > len(data):
                out.append(("space", ty.size - len(data)))
            return out
        if not isinstance(init, list):
            raise CompileError("array initializer must be a brace list",
                               line)
        if len(init) > ty.length:
            raise CompileError("too many array initializers", line)
        out: list[tuple] = []
        for item in init:
            out.extend(self._global_init(ty.element, item, line))
        remaining = ty.size - ty.element.size * len(init)
        if remaining:
            out.append(("space", remaining))
        return out

    def _const_value(self, expr, line: int):
        """Evaluate a constant initializer expression."""
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.StrLit):
            return ("sym", self.intern_string(expr.value))
        if isinstance(expr, ast.SizeofType):
            return expr.type.size
        if isinstance(expr, ast.Unary):
            if expr.op == "&" and isinstance(expr.operand, ast.Ident):
                return ("sym", expr.operand.name)
            value = self._const_value(expr.operand, line)
            if expr.op == "-":
                return -value
            if expr.op == "~":
                return ~int(value)
        if isinstance(expr, ast.Ident) and \
                isinstance(self.global_types.get(expr.name), ArrayType):
            return ("sym", expr.name)
        if isinstance(expr, ast.Binary):
            a = self._const_value(expr.left, line)
            b = self._const_value(expr.right, line)
            try:
                return {"+": lambda: a + b, "-": lambda: a - b,
                        "*": lambda: a * b, "/": lambda: a // b,
                        "%": lambda: a % b, "<<": lambda: a << b,
                        ">>": lambda: a >> b, "&": lambda: a & b,
                        "|": lambda: a | b, "^": lambda: a ^ b,
                        }[expr.op]()
            except (KeyError, TypeError):
                pass
        if isinstance(expr, ast.Cast):
            value = self._const_value(expr.operand, line)
            if expr.type.is_integer:
                return int(value)
            return float(value)
        raise CompileError("initializer is not a compile-time constant",
                           line)


class _FuncLowering:
    def __init__(self, ctx: _ModuleLowering, funcdef: ast.FuncDef):
        self.ctx = ctx
        self.funcdef = funcdef
        ret = funcdef.return_type
        ret_cls = None if isinstance(ret, VoidType) else ir_class(ret)
        self.func = Function(name=funcdef.name, params=[], return_cls=ret_cls)
        self.scopes: list[dict[str, _LocalVar]] = [{}]
        self.loop_stack: list[tuple[str, str]] = []   # (continue, break)
        self.next_label = 0
        self.block = Block(label=f".L{funcdef.name}_entry")
        self.func.blocks.append(self.block)
        self.addressed = _collect_addressed(funcdef)

    # ------------------------------------------------------- infrastructure

    def run(self) -> Function:
        for param in self.funcdef.params:
            vreg = self.func.new_vreg(ir_class(param.type), param.name)
            self.func.params.append(vreg)
            if param.name in self.addressed:
                slot = self.func.new_slot(param.type.size, param.type.align,
                                          param.name)
                self._store_mem(MemLVal(slot, 0, param.type),
                                Value(vreg, param.type), self.funcdef.line)
                self.declare(param.name, _LocalVar(param.type, slot))
            else:
                self.declare(param.name, _LocalVar(param.type, vreg))
        self.lower_stmt(self.funcdef.body)
        if self.block.terminator is None:
            if self.func.return_cls is None:
                self.emit(Ret(None))
            else:
                zero = self.new_tmp(self.func.return_cls)
                if self.func.return_cls == "i":
                    self.emit(Const(zero, 0))
                else:
                    self.emit(FConst(zero, 0.0))
                self.emit(Ret(zero))
        return self.func

    def emit(self, inst):
        self.block.instrs.append(inst)
        return inst

    def new_tmp(self, cls: str) -> VReg:
        return self.func.new_vreg(cls)

    def new_label(self, hint: str) -> str:
        label = f".L{self.func.name}_{hint}{self.next_label}"
        self.next_label += 1
        return label

    def start_block(self, label: str) -> None:
        if self.block.terminator is None:
            self.emit(Jump(label))
        self.block = Block(label=label)
        self.func.blocks.append(self.block)

    def open_block(self, label: str) -> Block:
        """Start a block *without* terminating the current one (the
        caller will append the terminator to the old block later)."""
        self.block = Block(label=label)
        self.func.blocks.append(self.block)
        return self.block

    def declare(self, name: str, var: _LocalVar) -> None:
        scope = self.scopes[-1]
        if name in scope:
            raise CompileError(f"duplicate declaration of {name!r}",
                               self.funcdef.line)
        scope[name] = var

    def lookup(self, name: str) -> _LocalVar | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    # ---------------------------------------------------------- statements

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.scopes.append({})
            for inner in stmt.body:
                self.lower_stmt(inner)
            self.scopes.pop()
        elif isinstance(stmt, ast.VarDecl):
            self.lower_decl(stmt)
        elif isinstance(stmt, ast.DeclList):
            for decl in stmt.decls:
                self.lower_decl(decl)
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self.lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self.lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self.lower_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self.lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            self.lower_return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.loop_stack:
                raise CompileError("break outside loop", stmt.line)
            self.emit(Jump(self.loop_stack[-1][1]))
            self.start_block(self.new_label("dead"))
        elif isinstance(stmt, ast.Continue):
            if not self.loop_stack:
                raise CompileError("continue outside loop", stmt.line)
            self.emit(Jump(self.loop_stack[-1][0]))
            self.start_block(self.new_label("dead"))
        else:  # pragma: no cover - parser produces only the above
            raise CompileError(f"unhandled statement {type(stmt).__name__}",
                               stmt.line)

    def lower_decl(self, stmt: ast.VarDecl) -> None:
        ty = stmt.type
        needs_memory = (isinstance(ty, (ArrayType, StructType))
                        or stmt.name in self.addressed)
        if needs_memory:
            slot = self.func.new_slot(max(ty.size, 1), ty.align, stmt.name)
            self.declare(stmt.name, _LocalVar(ty, slot))
            if stmt.init is not None:
                self._init_local_slot(slot, ty, stmt.init, stmt.line)
            return
        if not ty.is_scalar:
            raise CompileError(f"cannot declare local of type {ty}",
                               stmt.line)
        vreg = self.func.new_vreg(ir_class(ty), stmt.name)
        self.declare(stmt.name, _LocalVar(ty, vreg))
        if stmt.init is not None:
            if isinstance(stmt.init, (list, ast.StrLit)):
                raise CompileError("brace initializer on scalar", stmt.line)
            value = self.coerce(self.lower_expr(stmt.init), ty, stmt.line)
            self.emit(Move(vreg, value.vreg))

    def _init_local_slot(self, slot: StackSlot, ty: Type, init,
                         line: int) -> None:
        if isinstance(ty, ArrayType):
            if isinstance(init, ast.StrLit):
                data = init.value.encode("latin-1") + b"\0"
                if len(data) > ty.size:
                    raise CompileError("string longer than array", line)
                for index, byte in enumerate(data):
                    tmp = self.new_tmp("i")
                    self.emit(Const(tmp, byte))
                    self.emit(Store(slot, tmp, 1, offset=index))
                return
            if not isinstance(init, list):
                raise CompileError("array initializer must be a brace list",
                                   line)
            if len(init) > ty.length:
                raise CompileError("too many initializers", line)
            for index, item in enumerate(init):
                offset = index * ty.element.size
                self._init_slot_scalar(slot, offset, ty.element, item, line)
            return
        if isinstance(ty, StructType):
            raise CompileError("struct locals cannot have initializers",
                               line)
        self._init_slot_scalar(slot, 0, ty, init, line)

    def _init_slot_scalar(self, slot, offset, ty, init, line) -> None:
        if isinstance(init, (list, ast.StrLit)):
            raise CompileError("nested brace initializers unsupported", line)
        value = self.coerce(self.lower_expr(init), ty, line)
        self._store_mem(MemLVal(slot, offset, ty), value, line)

    def lower_if(self, stmt: ast.If) -> None:
        then_label = self.new_label("then")
        else_label = self.new_label("else") if stmt.other else None
        end_label = self.new_label("endif")
        self.lower_condition(stmt.cond, then_label, else_label or end_label)
        self.start_block(then_label)
        self.lower_stmt(stmt.then)
        if self.block.terminator is None:
            self.emit(Jump(end_label))
        if stmt.other is not None:
            self.start_block(else_label)
            self.lower_stmt(stmt.other)
        self.start_block(end_label)

    def lower_while(self, stmt: ast.While) -> None:
        head = self.new_label("while")
        body = self.new_label("body")
        end = self.new_label("endwhile")
        self.start_block(head)
        self.lower_condition(stmt.cond, body, end)
        self.start_block(body)
        self.loop_stack.append((head, end))
        self.lower_stmt(stmt.body)
        self.loop_stack.pop()
        if self.block.terminator is None:
            self.emit(Jump(head))
        self.start_block(end)

    def lower_do_while(self, stmt: ast.DoWhile) -> None:
        body = self.new_label("do")
        cond = self.new_label("docond")
        end = self.new_label("enddo")
        self.start_block(body)
        self.loop_stack.append((cond, end))
        self.lower_stmt(stmt.body)
        self.loop_stack.pop()
        self.start_block(cond)
        self.lower_condition(stmt.cond, body, end)
        self.start_block(end)

    def lower_for(self, stmt: ast.For) -> None:
        self.scopes.append({})
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        head = self.new_label("for")
        body = self.new_label("forbody")
        step = self.new_label("forstep")
        end = self.new_label("endfor")
        self.start_block(head)
        if stmt.cond is not None:
            self.lower_condition(stmt.cond, body, end)
        else:
            self.emit(Jump(body))
        self.start_block(body)
        self.loop_stack.append((step, end))
        self.lower_stmt(stmt.body)
        self.loop_stack.pop()
        self.start_block(step)
        if stmt.step is not None:
            self.lower_expr(stmt.step)
        if self.block.terminator is None:
            self.emit(Jump(head))
        self.start_block(end)
        self.scopes.pop()

    def lower_return(self, stmt: ast.Return) -> None:
        if self.func.return_cls is None:
            if stmt.value is not None:
                raise CompileError("void function returns a value",
                                   stmt.line)
            self.emit(Ret(None))
        else:
            if stmt.value is None:
                raise CompileError("non-void function returns nothing",
                                   stmt.line)
            value = self.coerce(self.lower_expr(stmt.value),
                                self.funcdef.return_type, stmt.line)
            self.emit(Ret(value.vreg))
        self.start_block(self.new_label("dead"))

    # ---------------------------------------------------------- conditions

    def lower_condition(self, expr: ast.Expr, if_true: str,
                        if_false: str) -> None:
        """Lower a boolean context directly to control flow."""
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self.lower_condition(expr.operand, if_false, if_true)
            return
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            mid = self.new_label("and")
            self.lower_condition(expr.left, mid, if_false)
            self.start_block(mid)
            self.lower_condition(expr.right, if_true, if_false)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            mid = self.new_label("or")
            self.lower_condition(expr.left, if_true, mid)
            self.start_block(mid)
            self.lower_condition(expr.right, if_true, if_false)
            return
        if isinstance(expr, ast.Binary) and expr.op in _CMP_OPS:
            left = self.lower_expr(expr.left)
            right = self.lower_expr(expr.right)
            cond, a, b = self._compare(expr.op, left, right, expr.line)
            if a.ty.is_float:
                flag = self.new_tmp("i")
                self.emit(FCmp(flag, cond, a.vreg, b.vreg))
                self.emit(CJump(Cond.NE, flag, None, if_true, if_false))
            else:
                self.emit(CJump(cond, a.vreg, b.vreg, if_true, if_false))
            self.start_block(self.new_label("dead"))
            return
        value = self.lower_expr(expr)
        if isinstance(value.ty, VoidType):
            raise CompileError("void value used as a condition", expr.line)
        if value.ty.is_float:
            zero = self.new_tmp(ir_class(value.ty))
            self.emit(FConst(zero, 0.0))
            flag = self.new_tmp("i")
            self.emit(FCmp(flag, Cond.NE, value.vreg, zero))
            self.emit(CJump(Cond.NE, flag, None, if_true, if_false))
        else:
            self.emit(CJump(Cond.NE, value.vreg, None, if_true, if_false))
        self.start_block(self.new_label("dead"))

    def _compare(self, op: str, left: Value, right: Value, line: int):
        """Type-check a comparison; returns (cond, left', right')."""
        cond = _CMP_OPS[op]
        if left.ty.is_pointer or right.ty.is_pointer:
            cond = _UNSIGNED_COND[cond]
            return cond, left, right
        common = common_arithmetic(left.ty, right.ty)
        left = self.coerce(left, common, line)
        right = self.coerce(right, common, line)
        return cond, left, right

    # -------------------------------------------------------- expressions

    def lower_expr(self, expr: ast.Expr) -> Value:
        method = getattr(self, f"_expr_{type(expr).__name__}", None)
        if method is None:  # pragma: no cover
            raise CompileError(f"unhandled expression {type(expr).__name__}",
                               expr.line)
        return method(expr)

    def _expr_IntLit(self, expr: ast.IntLit) -> Value:
        vreg = self.new_tmp("i")
        self.emit(Const(vreg, expr.value & 0xFFFFFFFF))
        return Value(vreg, INT)

    def _expr_FloatLit(self, expr: ast.FloatLit) -> Value:
        cls = "f" if expr.is_single else "d"
        vreg = self.new_tmp(cls)
        self.emit(FConst(vreg, expr.value))
        return Value(vreg, FLOAT if expr.is_single else DOUBLE)

    def _expr_StrLit(self, expr: ast.StrLit) -> Value:
        label = self.ctx.intern_string(expr.value)
        vreg = self.new_tmp("i")
        self.emit(AddrGlobal(vreg, label))
        return Value(vreg, pointer_to(CHAR))

    def _expr_Ident(self, expr: ast.Ident) -> Value:
        lval = self.lower_lvalue(expr)
        return self._load_lval(lval, expr.line)

    def _expr_Index(self, expr: ast.Index) -> Value:
        return self._load_lval(self.lower_lvalue(expr), expr.line)

    def _expr_Member(self, expr: ast.Member) -> Value:
        return self._load_lval(self.lower_lvalue(expr), expr.line)

    def _expr_SizeofType(self, expr: ast.SizeofType) -> Value:
        vreg = self.new_tmp("i")
        self.emit(Const(vreg, expr.type.size))
        return Value(vreg, INT)

    def _expr_Cast(self, expr: ast.Cast) -> Value:
        value = self.lower_expr(expr.operand)
        return self.coerce(value, expr.type, expr.line, explicit=True)

    def _expr_Call(self, expr: ast.Call) -> Value:
        sig = self.ctx.signatures.get(expr.name)
        if sig is None:
            raise CompileError(f"call to undefined function {expr.name!r}",
                               expr.line)
        ret_ty, param_tys = sig
        if len(expr.args) != len(param_tys):
            raise CompileError(
                f"{expr.name} expects {len(param_tys)} arguments, "
                f"got {len(expr.args)}", expr.line)
        args = []
        for arg, ty in zip(expr.args, param_tys):
            args.append(self.coerce(self.lower_expr(arg), ty,
                                    expr.line).vreg)
        self.func.max_call_args = max(self.func.max_call_args, len(args))
        if isinstance(ret_ty, VoidType):
            self.emit(CallInst(None, expr.name, args))
            return Value(None, VOID)
        dst = self.new_tmp(ir_class(ret_ty))
        self.emit(CallInst(dst, expr.name, args))
        return Value(dst, decay(ret_ty))

    def _expr_Unary(self, expr: ast.Unary) -> Value:
        op = expr.op
        if op == "&":
            lval = self.lower_lvalue(expr.operand)
            if isinstance(lval, RegLVal):  # pragma: no cover - prescan
                raise CompileError("cannot take address of register value",
                                   expr.line)
            addr = self._lval_address(lval)
            return Value(addr, pointer_to(lval.ty))
        if op == "*":
            value = self.lower_expr(expr.operand)
            if not value.ty.is_pointer:
                raise CompileError("dereference of non-pointer", expr.line)
            return self._load_lval(
                MemLVal(value.vreg, 0, value.ty.target), expr.line)
        if op in ("++", "--"):
            return self._incdec(expr.operand, op, expr.line, post=False)
        value = self.lower_expr(expr.operand)
        if op == "-":
            dst = self.new_tmp(value.vreg.cls)
            self.emit(Un("fneg" if value.ty.is_float else "neg",
                         dst, value.vreg))
            return Value(dst, value.ty if value.ty.is_float else INT)
        if op == "~":
            if not value.ty.is_integer:
                raise CompileError("~ needs an integer", expr.line)
            dst = self.new_tmp("i")
            self.emit(Un("inv", dst, value.vreg))
            return Value(dst, INT)
        if op == "!":
            dst = self.new_tmp("i")
            if value.ty.is_float:
                zero = self.new_tmp(value.vreg.cls)
                self.emit(FConst(zero, 0.0))
                self.emit(FCmp(dst, Cond.EQ, value.vreg, zero))
            else:
                zero = self.new_tmp("i")
                self.emit(Const(zero, 0))
                self.emit(Cmp(dst, Cond.EQ, value.vreg, zero))
            return Value(dst, INT)
        raise CompileError(f"unhandled unary {op!r}", expr.line)

    def _expr_Postfix(self, expr: ast.Postfix) -> Value:
        return self._incdec(expr.operand, expr.op, expr.line, post=True)

    def _incdec(self, target: ast.Expr, op: str, line: int,
                post: bool) -> Value:
        lval = self.lower_lvalue(target)
        old = self._load_lval(lval, line)
        step = old.ty.target.size if old.ty.is_pointer else 1
        if old.ty.is_float:
            one = self.new_tmp(old.vreg.cls)
            self.emit(FConst(one, 1.0))
            new = self.new_tmp(old.vreg.cls)
            self.emit(Bin("fadd" if op == "++" else "fsub",
                          new, old.vreg, one))
        else:
            amount = self.new_tmp("i")
            self.emit(Const(amount, step))
            new = self.new_tmp("i")
            self.emit(Bin("add" if op == "++" else "sub",
                          new, old.vreg, amount))
        self._store_lval(lval, Value(new, old.ty), line)
        return Value(old.vreg if post else new, old.ty)

    def _expr_Assign(self, expr: ast.Assign) -> Value:
        lval = self.lower_lvalue(expr.target)
        target_ty = decay(lval.ty)
        if expr.op == "=":
            value = self.coerce(self.lower_expr(expr.value), lval.ty,
                                expr.line)
            self._store_lval(lval, value, expr.line)
            return value
        binop = expr.op[:-1]
        current = self._load_lval(lval, expr.line)
        rhs = self.lower_expr(expr.value)
        result = self._binary_values(binop, current, rhs, expr.line)
        result = self.coerce(result, lval.ty, expr.line)
        self._store_lval(lval, result, expr.line)
        return result

    def _expr_Conditional(self, expr: ast.Conditional) -> Value:
        then_label = self.new_label("cthen")
        else_label = self.new_label("celse")
        end_label = self.new_label("cend")
        self.lower_condition(expr.cond, then_label, else_label)

        self.start_block(then_label)
        then_val = self.lower_expr(expr.then)
        then_block = self.block

        self.open_block(else_label)
        else_val = self.lower_expr(expr.other)
        else_block = self.block

        if then_val.ty.is_arithmetic and else_val.ty.is_arithmetic:
            result_ty = common_arithmetic(then_val.ty, else_val.ty)
        else:
            result_ty = decay(then_val.ty)
        result = self.new_tmp(ir_class(result_ty))

        self.block = then_block
        coerced = self.coerce(then_val, result_ty, expr.line)
        self.emit(Move(result, coerced.vreg))
        self.emit(Jump(end_label))

        self.block = else_block
        coerced = self.coerce(else_val, result_ty, expr.line)
        self.emit(Move(result, coerced.vreg))
        self.emit(Jump(end_label))

        self.block = Block(label=end_label)
        self.func.blocks.append(self.block)
        return Value(result, result_ty)

    def _expr_Binary(self, expr: ast.Binary) -> Value:
        op = expr.op
        if op == ",":
            self.lower_expr(expr.left)
            return self.lower_expr(expr.right)
        if op in ("&&", "||"):
            # Materialize the boolean via control flow.
            result = self.new_tmp("i")
            true_label = self.new_label("btrue")
            false_label = self.new_label("bfalse")
            end_label = self.new_label("bend")
            self.lower_condition(expr, true_label, false_label)
            self.start_block(true_label)
            self.emit(Const(result, 1))
            self.emit(Jump(end_label))
            self.start_block(false_label)
            self.emit(Const(result, 0))
            self.emit(Jump(end_label))
            self.start_block(end_label)
            return Value(result, INT)
        if op in _CMP_OPS:
            left = self.lower_expr(expr.left)
            right = self.lower_expr(expr.right)
            cond, a, b = self._compare(op, left, right, expr.line)
            dst = self.new_tmp("i")
            if a.ty.is_float:
                self.emit(FCmp(dst, cond, a.vreg, b.vreg))
            else:
                self.emit(Cmp(dst, cond, a.vreg, b.vreg))
            return Value(dst, INT)
        left = self.lower_expr(expr.left)
        right = self.lower_expr(expr.right)
        return self._binary_values(op, left, right, expr.line)

    def _binary_values(self, op: str, left: Value, right: Value,
                       line: int) -> Value:
        if isinstance(left.ty, VoidType) or isinstance(right.ty, VoidType):
            raise CompileError("void value used in an expression", line)
        # Pointer arithmetic.
        if op in ("+", "-") and left.ty.is_pointer:
            if right.ty.is_pointer:
                if op != "-":
                    raise CompileError("cannot add pointers", line)
                diff = self.new_tmp("i")
                self.emit(Bin("sub", diff, left.vreg, right.vreg))
                return Value(self._divide_const(diff, left.ty.target.size),
                             INT)
            scaled = self._scale(right, left.ty.target.size, line)
            dst = self.new_tmp("i")
            self.emit(Bin(_INT_BIN[op], dst, left.vreg, scaled))
            return Value(dst, left.ty)
        if op == "+" and right.ty.is_pointer:
            scaled = self._scale(left, right.ty.target.size, line)
            dst = self.new_tmp("i")
            self.emit(Bin("add", dst, right.vreg, scaled))
            return Value(dst, right.ty)

        common = common_arithmetic(left.ty, right.ty)
        if common.is_float and op not in _FLT_BIN:
            raise CompileError(f"operator {op!r} not defined for {common}",
                               line)
        left = self.coerce(left, common, line)
        right = self.coerce(right, common, line)
        dst = self.new_tmp(ir_class(common))
        if common.is_float:
            self.emit(Bin(_FLT_BIN[op], dst, left.vreg, right.vreg))
        else:
            if op not in _INT_BIN:
                raise CompileError(f"unhandled operator {op!r}", line)
            self.emit(Bin(_INT_BIN[op], dst, left.vreg, right.vreg))
        return Value(dst, common)

    def _scale(self, value: Value, size: int, line: int) -> VReg:
        if not value.ty.is_integer:
            raise CompileError("pointer offset must be an integer", line)
        if size == 1:
            return value.vreg
        amount = self.new_tmp("i")
        self.emit(Const(amount, size))
        dst = self.new_tmp("i")
        self.emit(Bin("mul", dst, value.vreg, amount))
        return dst

    def _divide_const(self, vreg: VReg, size: int) -> VReg:
        if size == 1:
            return vreg
        amount = self.new_tmp("i")
        self.emit(Const(amount, size))
        dst = self.new_tmp("i")
        self.emit(Bin("div", dst, vreg, amount))
        return dst

    # -------------------------------------------------------------- lvalues

    def lower_lvalue(self, expr: ast.Expr):
        if isinstance(expr, ast.Ident):
            var = self.lookup(expr.name)
            if var is not None:
                if isinstance(var.storage, VReg):
                    return RegLVal(var.storage, var.ty)
                return MemLVal(var.storage, 0, var.ty)
            if expr.name in self.ctx.global_types:
                return MemLVal(expr.name, 0,
                               self.ctx.global_types[expr.name])
            raise CompileError(f"undefined variable {expr.name!r}",
                               expr.line)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            value = self.lower_expr(expr.operand)
            if not value.ty.is_pointer:
                raise CompileError("dereference of non-pointer", expr.line)
            return MemLVal(value.vreg, 0, value.ty.target)
        if isinstance(expr, ast.Index):
            return self._index_lvalue(expr)
        if isinstance(expr, ast.Member):
            return self._member_lvalue(expr)
        raise CompileError("expression is not assignable", expr.line)

    def _index_lvalue(self, expr: ast.Index) -> MemLVal:
        base_expr = expr.base

        # Indexing directly into an in-memory array: keep base/offset form
        # so constant indices fold into the addressing-mode displacement.
        if isinstance(self._static_type(base_expr), ArrayType):
            base_lval = self.lower_lvalue(base_expr)
            elem = base_lval.ty.element
            if isinstance(expr.index, ast.IntLit):
                offset = base_lval.offset + expr.index.value * elem.size
                return MemLVal(base_lval.base, offset, elem)
            index = self.lower_expr(expr.index)
            if not index.ty.is_integer:
                raise CompileError("array index must be an integer",
                                   expr.line)
            scaled = self._scale(index, elem.size, expr.line)
            base_addr = self._lval_address(base_lval)
            addr = self.new_tmp("i")
            self.emit(Bin("add", addr, base_addr, scaled))
            return MemLVal(addr, 0, elem)

        base = self.lower_expr(base_expr)
        if not base.ty.is_pointer:
            raise CompileError("indexing a non-array value", expr.line)
        elem = base.ty.target
        if isinstance(expr.index, ast.IntLit):
            return MemLVal(base.vreg, expr.index.value * elem.size, elem)
        index = self.lower_expr(expr.index)
        if not index.ty.is_integer:
            raise CompileError("array index must be an integer", expr.line)
        scaled = self._scale(index, elem.size, expr.line)
        addr = self.new_tmp("i")
        self.emit(Bin("add", addr, base.vreg, scaled))
        return MemLVal(addr, 0, elem)

    def _static_type(self, expr) -> Type | None:
        """Best-effort syntactic type of an expression (no code emitted)."""
        try:
            return self._static_type_inner(expr)
        except TypeError_:
            return None

    def _static_type_inner(self, expr) -> Type | None:
        if isinstance(expr, ast.Ident):
            var = self.lookup(expr.name)
            if var is not None:
                return var.ty
            return self.ctx.global_types.get(expr.name)
        if isinstance(expr, ast.Member):
            base_ty = self._static_type(expr.base)
            if expr.arrow:
                if isinstance(base_ty, PointerType) and \
                        isinstance(base_ty.target, StructType):
                    return base_ty.target.field_named(expr.name).type
                return None
            if isinstance(base_ty, StructType):
                return base_ty.field_named(expr.name).type
            return None
        if isinstance(expr, ast.Index):
            base_ty = self._static_type(expr.base)
            if isinstance(base_ty, ArrayType):
                return base_ty.element
            if isinstance(base_ty, PointerType):
                return base_ty.target
            return None
        if isinstance(expr, ast.Unary) and expr.op == "*":
            base_ty = self._static_type(expr.operand)
            if isinstance(base_ty, PointerType):
                return base_ty.target
            return None
        return None

    def _member_lvalue(self, expr: ast.Member) -> MemLVal:
        try:
            if expr.arrow:
                base = self.lower_expr(expr.base)
                if not (base.ty.is_pointer
                        and isinstance(base.ty.target, StructType)):
                    raise CompileError("-> on non-struct-pointer",
                                       expr.line)
                field = base.ty.target.field_named(expr.name)
                return MemLVal(base.vreg, field.offset, field.type)
            lval = self.lower_lvalue(expr.base)
            if not isinstance(lval, MemLVal) or \
                    not isinstance(lval.ty, StructType):
                raise CompileError(". on non-struct value", expr.line)
            field = lval.ty.field_named(expr.name)
            return MemLVal(lval.base, lval.offset + field.offset,
                           field.type)
        except TypeError_ as exc:
            raise CompileError(str(exc), expr.line) from exc

    def _lval_address(self, lval: MemLVal) -> VReg:
        """Materialize the address of a memory lvalue."""
        if isinstance(lval.base, VReg):
            if lval.offset == 0:
                return lval.base
            amount = self.new_tmp("i")
            self.emit(Const(amount, lval.offset))
            addr = self.new_tmp("i")
            self.emit(Bin("add", addr, lval.base, amount))
            return addr
        addr = self.new_tmp("i")
        if isinstance(lval.base, StackSlot):
            self.emit(AddrStack(addr, lval.base))
        else:
            self.emit(AddrGlobal(addr, lval.base))
        if lval.offset:
            amount = self.new_tmp("i")
            self.emit(Const(amount, lval.offset))
            out = self.new_tmp("i")
            self.emit(Bin("add", out, addr, amount))
            return out
        return addr

    def _load_lval(self, lval, line: int) -> Value:
        if isinstance(lval, RegLVal):
            return Value(lval.vreg, decay(lval.ty))
        ty = lval.ty
        if isinstance(ty, ArrayType):
            return Value(self._lval_address(lval), pointer_to(ty.element))
        if isinstance(ty, StructType):
            raise CompileError("cannot use a struct as a value", line)
        if ty.is_float:
            dst = self.new_tmp(ir_class(ty))
            self.emit(FLoad(dst, lval.base, offset=lval.offset))
            return Value(dst, ty)
        dst = self.new_tmp("i")
        self.emit(Load(dst, lval.base, ty.size, signed=ty.is_integer,
                       offset=lval.offset))
        return Value(dst, INT if ty.is_integer else ty)

    def _store_lval(self, lval, value: Value, line: int) -> None:
        if isinstance(lval, RegLVal):
            self.emit(Move(lval.vreg, value.vreg))
            return
        self._store_mem(lval, value, line)

    def _store_mem(self, lval: MemLVal, value: Value, line: int) -> None:
        ty = lval.ty
        if isinstance(ty, (ArrayType, StructType)):
            raise CompileError("cannot assign to an aggregate", line)
        if ty.is_float:
            self.emit(FStore(lval.base, value.vreg, offset=lval.offset))
        else:
            self.emit(Store(lval.base, value.vreg, ty.size,
                            offset=lval.offset))

    # ------------------------------------------------------------- coercion

    def coerce(self, value: Value, to_ty: Type, line: int,
               explicit: bool = False) -> Value:
        if isinstance(value.ty, VoidType):
            raise CompileError("void value used in an expression", line)
        to_ty = decay(to_ty)
        from_ty = value.ty
        if type(from_ty) is type(to_ty):
            if not from_ty.is_pointer or from_ty == to_ty or explicit:
                return Value(value.vreg, to_ty)
        if from_ty.is_pointer and to_ty.is_pointer:
            return Value(value.vreg, to_ty)   # minic: lax pointer converts
        if from_ty.is_pointer and to_ty.is_integer:
            return Value(value.vreg, to_ty)
        if from_ty.is_integer and to_ty.is_pointer:
            return Value(value.vreg, to_ty)
        if from_ty.is_integer and to_ty.is_integer:
            if to_ty.size == 1 and from_ty.size != 1 and explicit:
                # (char) cast: truncate then sign-extend via shifts.
                tmp = self.new_tmp("i")
                amount = self.new_tmp("i")
                self.emit(Const(amount, 24))
                self.emit(Bin("shl", tmp, value.vreg, amount))
                out = self.new_tmp("i")
                self.emit(Bin("shra", out, tmp, amount))
                return Value(out, to_ty)
            return Value(value.vreg, to_ty)
        if from_ty.is_integer and to_ty.is_float:
            dst = self.new_tmp(ir_class(to_ty))
            kind = "i2f" if isinstance(to_ty, FloatType) else "i2d"
            self.emit(Cvt(kind, dst, value.vreg))
            return Value(dst, to_ty)
        if from_ty.is_float and to_ty.is_integer:
            dst = self.new_tmp("i")
            kind = "f2i" if isinstance(from_ty, FloatType) else "d2i"
            self.emit(Cvt(kind, dst, value.vreg))
            return Value(dst, to_ty)
        if from_ty.is_float and to_ty.is_float:
            if type(from_ty) is type(to_ty):
                return Value(value.vreg, to_ty)
            dst = self.new_tmp(ir_class(to_ty))
            kind = "f2d" if isinstance(from_ty, FloatType) else "d2f"
            self.emit(Cvt(kind, dst, value.vreg))
            return Value(dst, to_ty)
        raise CompileError(f"cannot convert {from_ty} to {to_ty}", line)


def _collect_addressed(funcdef: ast.FuncDef) -> set[str]:
    """Names of locals whose address is taken (must live in memory)."""
    addressed: set[str] = set()

    def walk(node):
        if isinstance(node, ast.Unary) and node.op == "&":
            target = node.operand
            # &arr[i] and &s.f do not force the whole base into memory
            # unless the base is a plain scalar identifier.
            if isinstance(target, ast.Ident):
                addressed.add(target.name)
            walk(target)
            return
        if isinstance(node, (ast.Expr, ast.Stmt)):
            for value in vars(node).values():
                walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(funcdef.body)
    return addressed
