import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quantstab.model_dsl import (
    BinOp,
    Const,
    DslSyntaxError,
    EvalDomainError,
    Neg,
    NoiseVar,
    Pow,
    StateVar,
    UnknownVariableError,
    _power_chain,
    compile_exprs,
    differentiate,
    eval_expr,
    parse_expr,
    parse_model,
    print_expr,
)

EXAMPLE2_X = "(x1^3 + x1)*(1 + x2^2)"


def test_parse_simple_sum():
    ast = parse_expr("2*x1 + w1", 1, 1)
    assert ast == BinOp("+", BinOp("*", Const(2.0), StateVar(1)), NoiseVar(1))


def test_parse_cubic_times_quadratic():
    ast = parse_expr(EXAMPLE2_X, 2, 0)
    assert ast == BinOp(
        "*",
        BinOp("+", Pow(StateVar(1), 3), StateVar(1)),
        BinOp("+", Const(1.0), Pow(StateVar(2), 2)),
    )


def test_unknown_variable_rejected():
    with pytest.raises(UnknownVariableError, match="'y'"):
        parse_expr("x1 + y", 1, 0)


def test_variable_beyond_declared_dimension_rejected():
    with pytest.raises(UnknownVariableError, match="x3"):
        parse_expr("x3", 2, 0)
    with pytest.raises(UnknownVariableError, match="w2"):
        parse_expr("w2", 2, 1)


def test_syntax_error_carries_line_and_column():
    with pytest.raises(DslSyntaxError) as err:
        parse_expr("x1 + * 2", 1, 0)
    assert err.value.pos == (1, 6)


def test_eval_example2_coordinate():
    ast = parse_expr(EXAMPLE2_X, 2, 0)
    assert eval_expr(ast, [1.0, 1.0]) == 4.0


def test_eval_constant_zero():
    assert eval_expr(Const(0.0), []) == 0.0


def test_eval_division_by_zero_reports_location():
    ast = parse_expr("x1/x2", 2, 0)
    with pytest.raises(EvalDomainError) as err:
        eval_expr(ast, [1.0, 0.0])
    assert err.value.pos is not None


def test_eval_zero_to_negative_power_is_domain_error():
    ast = parse_expr("x1^-2", 1, 0)
    with pytest.raises(EvalDomainError):
        eval_expr(ast, [0.0])
    assert eval_expr(ast, [2.0]) == 0.25


def test_eval_deterministic_bit_identical():
    ast = parse_expr("(x1^3 + 0.1*x1) / (1 + x2^2) - w1", 2, 1)
    point = ([0.1234567, -2.71828], [0.577215])
    values = {eval_expr(ast, *point) for _ in range(50)}
    assert len(values) == 1


def test_differentiate_example2_entry():
    ast = parse_expr(EXAMPLE2_X, 2, 0)
    deriv = differentiate(ast, 1)
    for x1, x2 in [(0.0, 0.0), (1.0, 1.0), (-2.0, 0.5), (3.0, -1.0)]:
        expected = (3 * x1**2 + 1) * (1 + x2**2)
        assert eval_expr(deriv, [x1, x2]) == pytest.approx(expected, rel=1e-15)


def test_differentiate_unrelated_variable_is_zero():
    assert differentiate(parse_expr("x1", 2, 0), 2) == Const(0.0)


def _random_polynomial(rng, n_states, n_noise, depth):
    if depth == 0:
        kind = rng.integers(0, 3)
        if kind == 0:
            return Const(float(np.round(rng.uniform(-3, 3), 3)))
        if kind == 1:
            return StateVar(int(rng.integers(1, n_states + 1)))
        return NoiseVar(int(rng.integers(1, n_noise + 1)))
    kind = rng.integers(0, 5)
    if kind == 3:
        return Pow(_random_polynomial(rng, n_states, n_noise, depth - 1), int(rng.integers(2, 4)))
    if kind == 4:
        return Neg(_random_polynomial(rng, n_states, n_noise, depth - 1))
    a = _random_polynomial(rng, n_states, n_noise, depth - 1)
    b = _random_polynomial(rng, n_states, n_noise, depth - 1)
    return BinOp("+-*"[kind], a, b)


def _central_difference(ast, x, w, index, h=1e-5):
    hi = list(x)
    lo = list(x)
    hi[index - 1] += h
    lo[index - 1] -= h
    return (eval_expr(ast, hi, w) - eval_expr(ast, lo, w)) / (2 * h)


def test_derivative_matches_finite_differences_on_random_polynomials():
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 100:
        ast = _random_polynomial(rng, 2, 1, depth=int(rng.integers(1, 4)))
        x = rng.uniform(-10, 10, 2).tolist()
        w = rng.uniform(-10, 10, 1).tolist()
        wrt = int(rng.integers(1, 3))
        sym = eval_expr(differentiate(ast, wrt), x, w)
        if abs(eval_expr(ast, x, w)) > 1e6:
            continue  # keep cancellation error inside the finite-difference budget
        fd = _central_difference(ast, x, w, wrt)
        assert abs(sym - fd) <= 1e-5 * max(1.0, abs(sym))
        checked += 1


def test_derivative_matches_finite_differences_tightly_on_shallow_polynomials():
    rng = np.random.default_rng(7)
    for _ in range(100):
        ast = _random_polynomial(rng, 2, 1, depth=2)
        x = rng.uniform(-10, 10, 2).tolist()
        w = rng.uniform(-10, 10, 1).tolist()
        wrt = int(rng.integers(1, 3))
        sym = eval_expr(differentiate(ast, wrt), x, w)
        fd = _central_difference(ast, x, w, wrt)
        assert abs(sym - fd) <= 1e-6 * max(10.0, abs(sym))


def test_rational_derivative_quotient_rule():
    ast = parse_expr("x1 / (1 + x2^2)", 2, 0)
    d1 = differentiate(ast, 1)
    d2 = differentiate(ast, 2)
    x = [1.5, -0.5]
    assert eval_expr(d1, x) == pytest.approx(1 / (1 + 0.25))
    assert eval_expr(d2, x) == pytest.approx(1.5 * (-2 * -0.5) / (1 + 0.25) ** 2)


def test_print_parse_round_trip_is_idempotent():
    sources = [
        "2*x1 + w1",
        EXAMPLE2_X,
        "-x1^2 - (x2 - 3) * (x1 + w1)",
        "x1 / x2 / (2 - w1)",
        "-(x1 + x2)^3 * 0.25",
        "1.5e-3 * x1^2 - x2^-2",
    ]
    for text in sources:
        first = parse_expr(text, 2, 1)
        printed = print_expr(first)
        second = parse_expr(printed, 2, 1)
        assert second == first
        assert print_expr(second) == printed


def test_print_parse_round_trip_on_random_trees():
    rng = np.random.default_rng(99)
    for _ in range(200):
        ast = _random_polynomial(rng, 3, 2, depth=int(rng.integers(1, 5)))
        printed = print_expr(ast)
        reparsed = parse_expr(printed, 3, 2)
        assert print_expr(reparsed) == printed
        point = (rng.uniform(-2, 2, 3).tolist(), rng.uniform(-2, 2, 2).tolist())
        assert eval_expr(reparsed, *point) == eval_expr(ast, *point)


def test_parse_model_full_block():
    source = parse_model(
        """
        # cubic system
        states 2
        noise 1
        controls 2
        B = [1 0; 0 1]
        x1' = (x1^3 + x1) * (1 + x2^2)
        x2' = 0.5*x2 + w1
        """
    )
    assert source.n == 2 and source.control_dim == 2 and source.noise_dim == 1
    assert np.array_equal(source.b, np.eye(2))
    assert eval_expr(source.exprs[0], [1, 1], [0]) == 4.0


def test_parse_model_defaults_identity_b():
    source = parse_model("states 1\nx1' = 2*x1")
    assert source.b.shape == (1, 1) and source.b[0, 0] == 1.0
    assert source.noise_dim == 0


def test_parse_model_missing_equation():
    with pytest.raises(DslSyntaxError, match="missing equations for x2"):
        parse_model("states 2\nx1' = x1")


def test_parse_model_wrong_b_shape():
    with pytest.raises(DslSyntaxError, match="B must be"):
        parse_model("states 2\nB = [1 0]\nx1' = x1\nx2' = x2")


def test_parse_model_duplicate_equation():
    with pytest.raises(DslSyntaxError, match="twice"):
        parse_model("states 1\nx1' = x1\nx1' = 2*x1")


def test_parse_model_unknown_line():
    with pytest.raises(DslSyntaxError, match="unrecognized line"):
        parse_model("states 1\nbogus here\nx1' = x1")


@pytest.mark.parametrize(
    "text, line",
    [
        ("states 0", 1),
        ("states 2\nstates 1\nx1' = x1", 2),
        ("states 1\nnoise 1\nnoise 1\nx1' = x1 + w1", 3),
        ("states 1\ncontrols 1\nx1' = x1\ncontrols 2", 4),
        ("states 1\nB = [1]\nB = [2]\nx1' = x1", 3),
        ("states ٣\nx1' = x1", 1),  # \d would read the Arabic-Indic digit as 3
    ],
    ids=["no-states", "states-twice", "noise-twice", "controls-twice", "B-twice", "non-ASCII-digit"],
)
def test_parse_model_rejects_a_header_it_would_break_on_or_overwrite(text, line):
    with pytest.raises(DslSyntaxError) as err:
        parse_model(text)
    assert err.value.pos == (line, 1)


@pytest.mark.parametrize(
    "line, column",
    [
        ("x1' = 2*x1 + y1", 14),
        ("   x1'   =    2*x1 + y1", 22),
        ("\tx1'=2*x1 + y1", 13),
    ],
)
def test_parse_model_columns_count_from_the_start_of_the_line(line, column):
    with pytest.raises(UnknownVariableError) as err:
        parse_model(f"states 1\nnoise 1\n{line}")
    assert err.value.pos == (3, column)
    assert line[column - 1 : column + 1] == "y1"


def test_parse_expr_positions_are_source_columns():
    # a BinOp or Pow sits at its operator, every other node at its first
    # character; ^ is one column wide and ** two. The text starts at column 10.
    ast = parse_expr("  -(x1 ** 2) ^ 3 / w1", 1, 1, line=4, col=10)
    assert ast == BinOp("/", Neg(Pow(Pow(StateVar(1), 2), 3)), NoiseVar(1))
    outer = ast.a.a
    assert (ast.pos, ast.a.pos, ast.b.pos) == ((4, 27), (4, 12), (4, 29))
    assert (outer.pos, outer.base.pos, outer.base.base.pos) == ((4, 23), (4, 17), (4, 14))


@pytest.mark.parametrize(
    "text",
    [
        "x1^(2)", "x1^(-2)", "x1^-(2)", "x1^+2", "x1^2.0", "x1^1e2", "x1^x1", "x1^2^3",
        "007", "x1^02", "1_0", "0x1", "1j", "x1.real", "x1 // 2", "x1 if x1 else 2", "not x1",
        "x1 # comment", "(x1\n+ 1)", "x1 % 2", "None", "x1(2)", "٣", "ｘ1",
    ],
)
def test_parse_expr_rejects_what_python_accepts_beyond_the_dsl(text):
    with pytest.raises(DslSyntaxError):
        parse_expr(text, 1, 0)


@pytest.mark.parametrize("text", ["x1^2", "x1**2", "x1 ^ - 2", "x1 ** -2", "  x1^2 ", "\t(x1)^2"])
def test_parse_expr_power_forms_agree(text):
    assert parse_expr(text, 1, 0) == Pow(StateVar(1), -2 if "-" in text else 2)


@pytest.mark.parametrize(
    "text",
    ["(" * 300 + "x1" + ")" * 300, "-" * 3000 + "x1", "x1" + " + x1" * 3000],
    ids=["parentheses-300", "signs-3000", "terms-3000"],
)
def test_parse_expr_too_deep_is_a_syntax_error(text):
    with pytest.raises(DslSyntaxError):
        parse_expr(text, 1, 0)


# tokens of the DSL, and foreign ones that Python reads but the DSL does not;
# joined without separators they also run together, as in 1e31 or 1if
_DSL_TOKENS = ["x1", "x2", "w1", "x3", "w2", "1", "0.5", ".5", "5.", "1e3", "1E+2", "2",
               "+", "-", "*", "/", "^", "**", "(", ")", " "]
_FOREIGN_TOKENS = ["if", "else", "or", "1_0", "0x1", "1j", "x1.real", "#", "//", "@", "007",
                   "\n", "\t", "None", ",", "٣"]
_TOKEN_SOUP = st.lists(st.sampled_from(_DSL_TOKENS + _FOREIGN_TOKENS), min_size=1, max_size=12)
# mostly well-formed text, so that many draws parse
_WELL_FORMED = st.recursive(
    st.sampled_from(["x1", "x2", "w1", "1", "0.5", ".5", "5.", "1e3", "1E+2", "2"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " + ", " - ", " * "]), inner),
        st.tuples(st.sampled_from(["-", "+", " -"]), inner),
        st.tuples(st.just("("), inner, st.just(")")),
        st.tuples(inner, st.sampled_from(["^", "**", "^-", " ** - "]), st.sampled_from(["0", "2", "3"])),
    ).map("".join),
    max_leaves=8,
)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.one_of(_TOKEN_SOUP.map("".join), _WELL_FORMED))
def test_parse_expr_gives_a_tree_that_prints_back_or_a_syntax_error(text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            tree = parse_expr(text, 2, 1)
        except DslSyntaxError:  # UnknownVariableError included
            tree = None
    assert not caught  # e.g. Python's SyntaxWarning on 1if
    if tree is None:
        return
    printed = print_expr(tree)
    if "inf" not in printed:  # a literal beyond 1e308 prints as inf, which reads as a name
        assert parse_expr(printed, 2, 1) == tree


def test_compiled_matches_tree_walk():
    src = parse_model("states 2\nnoise 1\nx1' = (x1^3 + x1)*(1 + x2^2)\nx2' = 0.5*x2 + w1")
    fn = compile_exprs(src.exprs, 2, 1)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-3, 3, 2)
        w = rng.uniform(-1, 1, 1)
        fast = fn(*x.tolist(), *w.tolist())
        slow = [eval_expr(e, x, w) for e in src.exprs]
        assert fast[0] == slow[0] and fast[1] == slow[1]


# --------------------------------------------------------------------------
# Scalar, column-array and tree-walk evaluation agree bit for bit

_LEAVES = st.one_of(
    st.sampled_from([0.0, 1.0, -2.5, 0.5, 3.0]).map(Const),
    st.integers(1, 2).map(StateVar),
    st.just(NoiseVar(1)),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda oab: BinOp(*oab)),
        st.tuples(children, st.integers(-3, 40)).map(lambda be: Pow(*be)),
        children.map(Neg),
    )


_TREES = st.recursive(_LEAVES, _extend, max_leaves=8)
# zeros divide by zero, 1e10 overflows x^40, 1e-200 underflows a negative power
_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-200, 1e10, -3.7]) | st.floats(-10, 10)


def _same_bits(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or struct.pack("d", a) == struct.pack("d", b)


@settings(max_examples=50, deadline=None)
@given(
    exprs=st.lists(_TREES, min_size=1, max_size=3),
    points=arrays(float, (6, 3), elements=_VALUES, fill=st.nothing()),
)
@example(
    exprs=[
        Pow(StateVar(1), 3),  # numpy ** and Python ** round 0.9027556576068978^3 apart
        BinOp("/", Const(1.0), BinOp("/", Const(1.0), StateVar(1))),  # 1 / inf would hide x1 = 0
        Pow(BinOp("+", StateVar(1), NoiseVar(1)), -2),  # zero and underflowing bases
        Pow(StateVar(2), 40),  # 1e10^40 is inf, where Python ** raised OverflowError
    ],
    points=np.array(
        [
            [0.9027556576068978, 1.0, 0.5],
            [0.0, 0.0, 0.0],
            [1e10, 1e-200, -1.0],
            [1e-200, 2.0, 0.0],
            [-0.0, 1e10, 1.0],
            [-1.0, -3.7, 1.0],
        ]
    ),
)
@example(
    # the tuple raises as a whole, while the first expression alone is fine
    exprs=[Const(0.0), Neg(Neg(BinOp("/", Const(0.0), Const(0.0))))],
    points=np.zeros((6, 3)),
)
@example(
    # constants that are not finite compile as float constants inf and nan
    exprs=[
        BinOp("+", StateVar(1), Const(math.inf)),
        BinOp("*", Const(-math.inf), StateVar(2)),  # -inf * 0 is nan
        BinOp("-", NoiseVar(1), Const(math.nan)),
    ],
    points=np.array([[0.5, 0.0, 1.0], [-1.0, 2.0, 0.0], [0.0, -0.0, -3.7]] * 2),
)
def test_scalar_array_and_tree_walk_agree_bitwise(exprs, points):
    fn = compile_exprs(exprs, 2, 1)
    try:
        with np.errstate(all="ignore"):
            cols = [np.broadcast_to(c, (len(points),)) for c in fn(*points.T)]
    except ZeroDivisionError:
        cols = None  # a constant subexpression divides by zero in every row
    raised = np.zeros((len(points), len(exprs)), dtype=bool)
    for k, row in enumerate(points.tolist()):
        walked = []
        for i, expr in enumerate(exprs):
            try:
                walked.append(eval_expr(expr, row[:2], row[2:]))
            except EvalDomainError:
                walked.append(None)
                raised[k, i] = True
                assert cols is None or not np.isfinite(cols[i][k])
            else:
                assert cols is None or _same_bits(float(cols[i][k]), walked[-1])
        if None in walked:
            with pytest.raises(ZeroDivisionError):
                fn(*row)
        else:
            assert all(_same_bits(a, b) for a, b in zip(fn(*row), walked))
    if cols is None:
        # the compiled tuple fails as a whole only for an expression whose
        # tree walk fails at every row
        assert raised.all(axis=0).any()


@pytest.mark.parametrize(
    "text",
    ["*".join(["x1"] * 150), "*".join(["x1"] * 400), " + ".join(["x1"] + ["0*x1"] * 199)],
    ids=["product-150", "product-400", "sum-200"],
)
def test_long_operator_chains_compile_and_agree_bitwise(text):
    # the compiled code is built as a syntax tree, not parsed from text, so
    # Python's 200-parenthesis limit does not apply: a 400-factor product's
    # product-rule Jacobian nests about 800 levels and still compiles
    src = parse_model(f"states 1\nnoise 1\nx1' = {text} + w1")
    exprs = [src.exprs[0], differentiate(src.exprs[0], 1)]
    fn = compile_exprs(exprs, 1, 1)
    points = np.array([[0.9, 0.1], [-1.05, 0.0], [1.01, -2.0], [0.0, 3.0], [-0.0, -0.5]])
    cols = [np.broadcast_to(c, (len(points),)) for c in fn(*points.T)]
    for k, row in enumerate(points.tolist()):
        scalar = fn(*row)
        for i, expr in enumerate(exprs):
            walked = eval_expr(expr, row[:1], row[1:])
            assert _same_bits(scalar[i], walked) and _same_bits(float(cols[i][k]), walked)


def test_power_chain_leaves_the_base_alone_and_matches_the_scalar_chain():
    base = np.array([0.9027556576068978, -1.7, 1e-200, 3.3, -0.0, 1e10])
    kept = base.copy()
    for exponent in range(1, 41):
        with np.errstate(over="ignore", under="ignore"):
            power = _power_chain(base, exponent)
        assert np.array_equal(base, kept)
        assert exponent == 1 or not np.shares_memory(power, base)
        for got, v in zip(power.tolist(), base.tolist()):
            assert _same_bits(got, _power_chain(v, exponent))
    assert _power_chain(3.0, 3) == 27.0  # floats take the plain products
