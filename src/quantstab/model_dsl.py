"""Expression DSL for declaring dynamics maps and deriving exact Jacobians.

Models are declared as one polynomial/rational expression per output
coordinate over state variables ``x1..xN`` and noise variables ``w1..wK``.
Parsed trees are immutable and safe to share across workers.
"""

from __future__ import annotations

import operator
import re
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
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()])"
    r"|(?P<ws>[ \t]+)"
)

_VAR_RE = re.compile(r"^([xw])([1-9]\d*)$")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    pos: Pos


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise DslSyntaxError(f"unexpected character {text[i]!r}", (line, i + 1))
        if m.lastgroup != "ws":
            tok_text = m.group()
            if tok_text == "**":
                tok_text = "^"
            tokens.append(_Token(m.lastgroup, tok_text, (line, i + 1)))
        i = m.end()
    tokens.append(_Token("end", "", (line, len(text) + 1)))
    return tokens


class _Parser:
    """Recursive descent over::

        expr   := term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := ('+'|'-') factor | power
        power  := atom (('^'|'**') ('-')? integer)?
        atom   := number | x<i> | w<j> | '(' expr ')'
    """

    def __init__(self, tokens: list[_Token], n_states: int, n_noise: int):
        self.tokens = tokens
        self.k = 0
        self.n_states = n_states
        self.n_noise = n_noise

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise DslSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse(self) -> ExprAst:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise DslSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> ExprAst:
        return self.chain("+-", self.term)

    def term(self) -> ExprAst:
        return self.chain("*/", self.factor)

    def chain(self, ops: str, operand: Callable[[], ExprAst]) -> ExprAst:
        """Left-associative run of ``operand`` joined by the operators in ``ops``."""
        node = operand()
        while self.peek().kind == "op" and self.peek().text in ops:
            op = self.advance()
            node = BinOp(op.text, node, operand(), pos=op.pos)
        return node

    def factor(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            inner = self.factor()
            return inner if tok.text == "+" else Neg(inner, pos=tok.pos)
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "op" and self.peek().text == "-":
                self.advance()
                sign = -1
            etok = self.peek()
            if etok.kind != "num" or any(c in etok.text for c in ".eE"):
                raise DslSyntaxError("exponent must be an integer literal", etok.pos)
            self.advance()
            return Pow(base, sign * int(etok.text), pos=tok.pos)
        return base

    def atom(self) -> ExprAst:
        tok = self.advance()
        if tok.kind == "num":
            return Const(float(tok.text), pos=tok.pos)
        if tok.kind == "ident":
            m = _VAR_RE.match(tok.text)
            if m is None:
                raise UnknownVariableError(f"unknown variable {tok.text!r}", tok.pos)
            idx = int(m.group(2))
            if m.group(1) == "x":
                if idx > self.n_states:
                    raise UnknownVariableError(
                        f"state variable {tok.text!r} exceeds declared dimension {self.n_states}",
                        tok.pos,
                    )
                return StateVar(idx, pos=tok.pos)
            if idx > self.n_noise:
                raise UnknownVariableError(
                    f"noise variable {tok.text!r} exceeds declared noise dimension {self.n_noise}",
                    tok.pos,
                )
            return NoiseVar(idx, pos=tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise DslSyntaxError(
            f"expected a number, variable or '(', found {tok.text or 'end of input'!r}", tok.pos
        )


def parse_expr(text: str, n_states: int, n_noise: int, line: int = 1) -> ExprAst:
    """Parse a single arithmetic expression over x1..xN, w1..wK."""
    return _Parser(_tokenize(text, line), n_states, n_noise).parse()


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


_HEADER_RE = re.compile(r"^(states|noise|controls)\s+(\d+)\s*$")
_EQ_RE = re.compile(r"^x([1-9]\d*)'\s*=\s*(.*)$")
_B_RE = re.compile(r"^B\s*=\s*\[(.*)\]\s*$")


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
    n = noise = controls = None
    b_text: Optional[tuple[str, int]] = None
    equations: dict[int, tuple[str, int, int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _HEADER_RE.match(line.strip())
        if m:
            value = int(m.group(2))
            key = m.group(1)
            if key == "states":
                n = value
            elif key == "noise":
                noise = value
            else:
                controls = value
            continue
        m = _B_RE.match(line.strip())
        if m:
            b_text = (m.group(1), lineno)
            continue
        m = _EQ_RE.match(line.strip())
        if m:
            idx = int(m.group(1))
            if idx in equations:
                raise DslSyntaxError(f"coordinate x{idx}' defined twice", (lineno, 1))
            col = raw.index("=") + 2
            equations[idx] = (m.group(2), lineno, col)
            continue
        raise DslSyntaxError(f"unrecognized line {line.strip()!r}", (lineno, 1))

    if n is None:
        raise DslSyntaxError("missing 'states <N>' declaration")
    noise = 0 if noise is None else noise
    controls = n if controls is None else controls

    if b_text is None:
        b = np.eye(n, controls)
    else:
        rows = [r.split() for r in b_text[0].split(";")]
        try:
            b = np.array([[float(v) for v in row] for row in rows], dtype=float)
        except ValueError as exc:
            raise DslSyntaxError(f"bad B matrix entry: {exc}", (b_text[1], 1)) from None
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
        src, lineno, _ = equations[i]
        exprs.append(parse_expr(src, n, noise, line=lineno))
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
    if v == int(v) and abs(v) < 1e16:
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


def _to_python(node: ExprAst) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, StateVar):
        return f"x{node.index - 1}"
    if isinstance(node, NoiseVar):
        return f"w{node.index - 1}"
    if isinstance(node, BinOp):
        a, b = _to_python(node.a), _to_python(node.b)
        return f"_quotient({a}, {b})" if node.op == "/" else f"({a} {node.op} {b})"
    if isinstance(node, Pow):
        if node.exponent == 0:
            return "1.0"
        power = f"_power_chain({_to_python(node.base)}, {node.exponent})"
        return power if node.exponent > 0 else f"_quotient(1.0, {power})"
    if isinstance(node, Neg):
        return f"(-{_to_python(node.a)})"
    raise TypeError(f"not an expression node: {node!r}")


def compile_exprs(
    exprs: Sequence[ExprAst], n_states: int, n_noise: int, name: str = "_dyn"
) -> Callable:
    """Compile expressions into one positional function ``f(x0.., w0..) -> tuple``.

    The generated arithmetic works on plain floats (replay, audits) and on
    numpy arrays passed column-wise (lockstep simulation, vectorized Monte
    Carlo), and both give the same bits: integer powers are one fixed chain
    of products, and a zero denominator that raises ZeroDivisionError for
    floats leaves nan in that array entry.
    """
    args = [f"x{i}" for i in range(n_states)] + [f"w{j}" for j in range(n_noise)]
    body = ", ".join(_to_python(e) for e in exprs)
    if len(exprs) == 1:
        body += ","
    src = f"def {name}({', '.join(args)}):\n    return ({body})\n"
    namespace: dict = {
        "_power_chain": _power_chain,
        "_quotient": _quotient,
        # a constant that is not finite prints as the bare name inf or nan
        "inf": np.inf,
        "nan": np.nan,
    }
    exec(compile(src, f"<{name}>", "exec"), namespace)
    fn = namespace[name]
    fn.__source__ = src
    return fn
