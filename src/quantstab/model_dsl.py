"""Expression DSL for declaring dynamics maps and deriving exact Jacobians.

Models are declared as one polynomial/rational expression per output
coordinate over state variables ``x1..xN`` and noise variables ``w1..wK``.
Parsed trees are immutable and safe to share across workers.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "DslSyntaxError",
    "UnknownVariableError",
    "EvalDomainError",
    "ExprAst",
    "Const",
    "StateVar",
    "NoiseVar",
    "BinOp",
    "Pow",
    "Neg",
    "ModelSource",
    "parse_expr",
    "parse_model",
    "eval_expr",
    "differentiate",
    "print_expr",
    "compile_exprs",
]

Pos = tuple[int, int]  # 1-based (line, column)


class DslSyntaxError(ValueError):
    """Malformed model text; carries the 1-based (line, column) of the fault."""

    def __init__(self, message: str, pos: Optional[Pos] = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (line {pos[0]}, column {pos[1]})"
        super().__init__(message)


class UnknownVariableError(DslSyntaxError):
    """Identifier is not a declared state or noise variable."""


class EvalDomainError(ArithmeticError):
    """Division by zero (or zero raised to a negative power) during evaluation."""

    def __init__(self, message: str, pos: Optional[Pos] = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (node at line {pos[0]}, column {pos[1]})"
        super().__init__(message)


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class ExprAst:
    """Base node. ``pos`` is parser provenance only and ignored by equality."""

    pos: Optional[Pos] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Const(ExprAst):
    value: float


@dataclass(frozen=True)
class StateVar(ExprAst):
    index: int  # 1-based, matching the surface name x<index>


@dataclass(frozen=True)
class NoiseVar(ExprAst):
    index: int  # 1-based


@dataclass(frozen=True)
class BinOp(ExprAst):
    op: str  # one of + - * /
    a: ExprAst
    b: ExprAst


@dataclass(frozen=True)
class Pow(ExprAst):
    base: ExprAst
    exponent: int


@dataclass(frozen=True)
class Neg(ExprAst):
    a: ExprAst


# --------------------------------------------------------------------------
# Parser: Python's expression grammar, restricted to the DSL

# any other character is rejected before Python reads the text: comments,
# newlines inside brackets, strings, non-ASCII names (Python NFKC-normalises
# them) and non-ASCII digits, so the patterns below see ASCII only
_DSL_CHARS_RE = re.compile(r"[A-Za-z0-9_.+\-*/^() \t]*")
_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_VAR_RE = re.compile(r"[xw][1-9]\d*")
_EXPONENT_RE = re.compile(r"[ \t]*(-?)[ \t]*(\d*)")
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**"}


def parse_expr(text: str, n_states: int, n_noise: int, line: int = 1, col: int = 1) -> ExprAst:
    """Parse a single arithmetic expression over x1..xN, w1..wK.

    The grammar is Python's, restricted to::

        expr   := term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := ('+'|'-') factor | power
        power  := atom (('^'|'**') ('-')? integer)?
        atom   := number | x<i> | w<j> | '(' expr ')'

    ``^`` is rewritten to ``**`` and ``ast.parse`` builds the tree; anything
    else Python accepts is an error here. ``col`` is the column of the line
    where ``text`` starts, so every position is a column of that line: a
    ``BinOp`` or ``Pow`` sits at its operator, every other node at its first
    character.
    """
    bad = _DSL_CHARS_RE.match(text).end()
    if bad < len(text):
        raise DslSyntaxError(f"unexpected character {text[bad]!r}", (line, col + bad))
    body = text.lstrip(" \t")  # Python rejects an indented expression
    col += len(text) - len(body)
    py = body.replace("^", "**")
    # source column (0-based, in body) of each character of py, and of its end
    cols = [i for i, ch in enumerate(body) for _ in range(2 if ch == "^" else 1)] + [len(body)]

    def pos(offset: int) -> Pos:
        return (line, col + cols[offset])

    def convert(node: ast.expr) -> ExprAst:
        seg = py[node.col_offset : node.end_col_offset]
        at = pos(node.col_offset)
        if isinstance(node, ast.Constant) and _NUMBER_RE.fullmatch(seg):
            return Const(float(seg), pos=at)
        if isinstance(node, ast.Name):
            if not _VAR_RE.fullmatch(node.id):
                raise UnknownVariableError(f"unknown variable {node.id!r}", at)
            state, index = node.id[0] == "x", int(node.id[1:])
            if state and index > n_states:
                raise UnknownVariableError(f"state variable {node.id!r} exceeds declared dimension {n_states}", at)
            if not state and index > n_noise:
                raise UnknownVariableError(f"noise variable {node.id!r} exceeds declared noise dimension {n_noise}", at)
            return (StateVar if state else NoiseVar)(index, pos=at)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            inner = convert(node.operand)
            return inner if isinstance(node.op, ast.UAdd) else Neg(inner, pos=at)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op = _BINOPS[type(node.op)]
            op_at = py.index(op, node.left.end_col_offset)
            if op != "**":
                return BinOp(op, convert(node.left), convert(node.right), pos=pos(op_at))
            # the exponent must be the literal text, unparenthesised
            m = _EXPONENT_RE.match(py, op_at + 2)
            if not m[2] or m.end() != node.right.end_col_offset:
                raise DslSyntaxError("exponent must be an integer literal", pos(m.start(2)))
            exponent = -int(m[2]) if m[1] else int(m[2])
            return Pow(convert(node.left), exponent, pos=pos(op_at))
        raise DslSyntaxError(f"{seg!r} is not a model expression", at)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # e.g. "invalid decimal literal" on 1or x1
            tree = ast.parse(py, mode="eval")
        return convert(tree.body)
    except SyntaxError as exc:
        # an offset off the text (Python gives 0 at some ends) is its end
        at = exc.offset - 1 if exc.offset and exc.offset <= len(py) else len(py)
        raise DslSyntaxError(exc.msg, pos(at)) from None
    except RecursionError:
        raise DslSyntaxError("expression is nested too deeply", (line, col)) from None


# --------------------------------------------------------------------------
# Model source

@dataclass(frozen=True)
class ModelSource:
    """Parsed model declaration: dimensions, control matrix and per-coordinate maps."""

    n: int
    control_dim: int
    noise_dim: int
    b: np.ndarray  # (n, control_dim)
    exprs: tuple[ExprAst, ...]  # one per output coordinate

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.shape != (self.n, self.control_dim):
            raise ValueError(
                f"B must be {self.n}x{self.control_dim}, got {b.shape[0]}x{b.shape[1] if b.ndim == 2 else '?'}"
            )
        if len(self.exprs) != self.n:
            raise ValueError(f"expected {self.n} coordinate expressions, got {len(self.exprs)}")
        object.__setattr__(self, "b", b)


_HEADER_RE = re.compile(r"^(states|noise|controls)\s+([0-9]+)\s*$")
_EQ_RE = re.compile(r"^x([1-9][0-9]*)'\s*=\s*(.*)$")
_B_RE = re.compile(r"^B\s*=\s*\[(.*)\]\s*$")
def _b_entry(text: str, line: int) -> float:
    """One B entry: a signed DSL number in ASCII digits whose value is finite."""
    number = text[1:] if text[:1] in ("+", "-") else text
    value = float(text) if number.isascii() and _NUMBER_RE.fullmatch(number) else math.nan
    if not math.isfinite(value):
        raise DslSyntaxError(f"bad B matrix entry {text!r}: need a finite number", (line, 1))
    return value


def parse_model(text: str) -> ModelSource:
    """Parse a full model block.

    Line-oriented format (``#`` starts a comment)::

        states 2
        noise 1            # optional, default 0
        controls 2         # optional, default = states
        B = [1 0; 0 1]     # optional, default identity
        x1' = (x1^3 + x1) * (1 + x2^2)
        x2' = 0.5*x2 + w1

    Every coordinate x1'..xN' must be defined exactly once.
    """
    declared: dict[str, int] = {}
    b_text: Optional[tuple[str, int]] = None
    equations: dict[int, tuple[str, int, int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        m = _HEADER_RE.match(stripped)
        if m:
            key = m.group(1)
            if key in declared:
                raise DslSyntaxError(f"'{key}' declared twice", (lineno, 1))
            declared[key] = int(m.group(2))
            if key == "states" and declared[key] == 0:
                raise DslSyntaxError("'states' must be at least 1", (lineno, 1))
            continue
        m = _B_RE.match(stripped)
        if m:
            if b_text is not None:
                raise DslSyntaxError("'B' declared twice", (lineno, 1))
            b_text = (m.group(1), lineno)
            continue
        m = _EQ_RE.match(stripped)
        if m:
            idx = int(m.group(1))
            if idx in equations:
                raise DslSyntaxError(f"coordinate x{idx}' defined twice", (lineno, 1))
            # the column of the line where the right-hand side starts
            col = len(line) - len(line.lstrip()) + m.start(2) + 1
            equations[idx] = (m.group(2), lineno, col)
            continue
        raise DslSyntaxError(f"unrecognized line {stripped!r}", (lineno, 1))

    if "states" not in declared:
        raise DslSyntaxError("missing 'states <N>' declaration")
    n = declared["states"]
    noise = declared.get("noise", 0)
    controls = declared.get("controls", n)

    if b_text is None:
        b = np.eye(n, controls)
    else:
        rows = [r.split() for r in b_text[0].split(";")]
        if len({len(row) for row in rows}) > 1:
            raise DslSyntaxError("B rows differ in length", (b_text[1], 1))
        b = np.array([[_b_entry(v, b_text[1]) for v in row] for row in rows], dtype=float)
        if b.ndim != 2 or b.shape != (n, controls):
            raise DslSyntaxError(
                f"B must be {n}x{controls}, got {'x'.join(str(s) for s in b.shape)}",
                (b_text[1], 1),
            )

    missing = [i for i in range(1, n + 1) if i not in equations]
    if missing:
        raise DslSyntaxError(f"missing equations for {', '.join(f'x{i}' for i in missing)}")
    extra = [i for i in equations if i > n]
    if extra:
        raise DslSyntaxError(f"equation for x{extra[0]}' exceeds declared dimension {n}")

    exprs = []
    for i in range(1, n + 1):
        src, lineno, col = equations[i]
        exprs.append(parse_expr(src, n, noise, line=lineno, col=col))
    return ModelSource(n=n, control_dim=controls, noise_dim=noise, b=b, exprs=tuple(exprs))


# --------------------------------------------------------------------------
# Evaluation

def _power_chain(base, exponent: int):
    """``base ^ |exponent|`` by square-and-multiply, for a nonzero exponent.

    The tree walk and the compiled code both take integer powers through this
    one chain of products, so scalar floats and numpy arrays round alike;
    ``**`` does not (numpy and Python float powers differ in the last bit).
    """
    e = abs(exponent)
    power = None
    while True:
        if e & 1:
            if power is None:
                power = base
            elif e == 1 and isinstance(base, np.ndarray):
                # the last product goes into the square this chain owns,
                # never into the caller's array, so no extra array stays alive
                power = np.multiply(power, base, out=base)
            else:
                power = power * base
        e >>= 1
        if not e:
            return power
        base = base * base


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def eval_expr(ast: ExprAst, x: Sequence[float], w: Sequence[float] = ()) -> float:
    """Evaluate at a state/noise point. Raises EvalDomainError on division by zero."""
    if isinstance(ast, Const):
        return ast.value
    if isinstance(ast, StateVar):
        if ast.index > len(x):
            raise ValueError(f"state vector has {len(x)} entries, expression uses x{ast.index}")
        return float(x[ast.index - 1])
    if isinstance(ast, NoiseVar):
        if ast.index > len(w):
            raise ValueError(f"noise vector has {len(w)} entries, expression uses w{ast.index}")
        return float(w[ast.index - 1])
    if isinstance(ast, BinOp):
        if ast.op != "/":
            return _ARITHMETIC[ast.op](eval_expr(ast.a, x, w), eval_expr(ast.b, x, w))
        # the denominator first, so its fault is the one reported
        den = eval_expr(ast.b, x, w)
        if den == 0.0:
            raise EvalDomainError("division by zero", ast.pos)
        return eval_expr(ast.a, x, w) / den
    if isinstance(ast, Pow):
        if ast.exponent == 0:
            return 1.0
        power = _power_chain(eval_expr(ast.base, x, w), ast.exponent)
        if ast.exponent > 0:
            return power
        if power == 0.0:
            raise EvalDomainError("zero raised to a negative power", ast.pos)
        return 1.0 / power
    if isinstance(ast, Neg):
        return -eval_expr(ast.a, x, w)
    raise TypeError(f"not an expression node: {ast!r}")


# --------------------------------------------------------------------------
# Differentiation

def _is_const(node: ExprAst, value: float) -> bool:
    return isinstance(node, Const) and node.value == value


def _add(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return BinOp("-", a, b)


def _mul(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return BinOp("*", a, b)


def _div(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return BinOp("/", a, b)


def _neg(a: ExprAst) -> ExprAst:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def _pow(base: ExprAst, exponent: int) -> ExprAst:
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    return Pow(base, exponent)


def differentiate(ast: ExprAst, wrt: int) -> ExprAst:
    """Exact partial derivative with respect to state variable x<wrt> (1-based).

    Total on the grammar; applies only trivial zero/one pruning, no general
    simplification.
    """
    if isinstance(ast, Const) or isinstance(ast, NoiseVar):
        return Const(0.0)
    if isinstance(ast, StateVar):
        return Const(1.0 if ast.index == wrt else 0.0)
    if isinstance(ast, BinOp):
        da, db = differentiate(ast.a, wrt), differentiate(ast.b, wrt)
        if ast.op in "+-":
            return (_add if ast.op == "+" else _sub)(da, db)
        # product rule; the quotient rule is its difference over b^2
        terms = _mul(da, ast.b), _mul(ast.a, db)
        if ast.op == "*":
            return _add(*terms)
        return _div(_sub(*terms), _pow(ast.b, 2))
    if isinstance(ast, Pow):
        inner = differentiate(ast.base, wrt)
        outer = _mul(Const(float(ast.exponent)), _pow(ast.base, ast.exponent - 1))
        return _mul(outer, inner)
    if isinstance(ast, Neg):
        return _neg(differentiate(ast.a, wrt))
    raise TypeError(f"not an expression node: {ast!r}")


# --------------------------------------------------------------------------
# Canonical printer

def _fmt_const(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):  # inf and nan print as their repr
        return str(int(v))
    return repr(v)


def _render(node: ExprAst, ctx: int) -> str:
    if isinstance(node, Const):
        s = _fmt_const(node.value)
        prec = 3 if node.value < 0 else 9
    elif isinstance(node, StateVar):
        s, prec = f"x{node.index}", 9
    elif isinstance(node, NoiseVar):
        s, prec = f"w{node.index}", 9
    elif isinstance(node, BinOp):
        prec = 1 if node.op in "+-" else 2
        s = f"{_render(node.a, prec)} {node.op} {_render(node.b, prec + 1)}"
    elif isinstance(node, Neg):
        s = f"-{_render(node.a, 3)}"
        prec = 3
    elif isinstance(node, Pow):
        s = f"{_render(node.base, 5)}^{node.exponent}"
        prec = 4
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return f"({s})" if prec < ctx else s


def print_expr(ast: ExprAst) -> str:
    """Canonical text form; parse(print(parse(s))) is a fixed point."""
    return _render(ast, 0)


# --------------------------------------------------------------------------
# Compilation to fast callables (scalar floats or numpy column arrays)

def _quotient(a, b):
    """``a / b`` in compiled code. Floats raise ZeroDivisionError on a zero
    denominator; for arrays that entry becomes nan, which no later step of
    the expression can turn finite again (``1 / inf`` would)."""
    q = a / b
    if isinstance(q, np.ndarray):
        zero = b == 0.0
        if np.any(zero):
            q = np.where(zero, np.nan, q)
    return q


def _call(func: str, *args: ast.expr) -> ast.Call:
    return ast.Call(ast.Name(func, ast.Load()), list(args), [])


def _to_python(node: ExprAst) -> ast.expr:
    """Python syntax-tree node of a DSL node: ``/`` and integer powers are
    calls of ``_quotient`` and ``_power_chain``, the rest Python's own."""
    if isinstance(node, Const):
        return ast.Constant(node.value)
    if isinstance(node, StateVar):
        return ast.Name(f"x{node.index - 1}", ast.Load())
    if isinstance(node, NoiseVar):
        return ast.Name(f"w{node.index - 1}", ast.Load())
    if isinstance(node, BinOp):
        a, b = _to_python(node.a), _to_python(node.b)
        if node.op == "/":
            return _call("_quotient", a, b)
        op = next(cls for cls, text in _BINOPS.items() if text == node.op)
        return ast.BinOp(a, op(), b)
    if isinstance(node, Pow):
        if node.exponent == 0:
            return ast.Constant(1.0)
        power = _call("_power_chain", _to_python(node.base), ast.Constant(node.exponent))
        return power if node.exponent > 0 else _call("_quotient", ast.Constant(1.0), power)
    if isinstance(node, Neg):
        return ast.UnaryOp(ast.USub(), _to_python(node.a))
    raise TypeError(f"not an expression node: {node!r}")


def compile_exprs(
    exprs: Sequence[ExprAst], n_states: int, n_noise: int, name: str = "_dyn"
) -> Callable:
    """Compile expressions into one positional function ``f(x0.., w0..) -> tuple``.

    The function is built as a Python syntax tree, kept as ``fn.__tree__``.
    The generated arithmetic works on plain floats (replay, audits) and on
    numpy arrays passed column-wise (lockstep simulation, vectorized Monte
    Carlo), and both give the same bits: integer powers are one fixed chain
    of products, and a zero denominator that raises ZeroDivisionError for
    floats leaves nan in that array entry.
    """
    args = [f"x{i}" for i in range(n_states)] + [f"w{j}" for j in range(n_noise)]
    try:
        body = ast.Tuple([_to_python(e) for e in exprs], ast.Load())
        signature = ast.arguments(
            posonlyargs=[], args=[ast.arg(a) for a in args], kwonlyargs=[], kw_defaults=[], defaults=[]
        )
        tree = ast.Module([ast.FunctionDef(name, signature, [ast.Return(body)], [])], [])
        # one iterative pass: ast.fix_missing_locations would recurse
        for node in ast.walk(tree):
            node.lineno = node.end_lineno = 1
            node.col_offset = node.end_col_offset = 0
        code = compile(tree, f"<{name}>", "exec")
    except RecursionError:
        raise DslSyntaxError("model is nested too deeply to compile") from None
    namespace: dict = {"_power_chain": _power_chain, "_quotient": _quotient}
    exec(code, namespace)
    fn = namespace[name]
    fn.__tree__ = tree
    return fn
