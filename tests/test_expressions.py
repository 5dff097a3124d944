import dataclasses
import math

import numpy as np
import pytest

import oracles
from fpsi import expressions
from fpsi.assembly import LOAD_ORDER, cell_quadrature
from fpsi.expressions import (
    PI,
    T,
    X,
    Y,
    Const,
    Cos,
    Expr,
    ExpressionError,
    Exp,
    Sin,
    div,
    dt,
    grad,
    parse_expression,
    sym_grad,
)
from fpsi.mesh import build_rect_two_domain
from fpsi.verify import CASE_IDS, manufactured_case


def test_parse_matches_reference_formulas():
    cases = [
        ("2*x + 3*y^2", lambda x, y, t: 2 * x + 3 * y ** 2),
        ("sin(pi*x)*cos(pi*y)", lambda x, y, t: math.sin(math.pi * x) * math.cos(math.pi * y)),
        ("exp(-t)*x*y", lambda x, y, t: math.exp(-t) * x * y),
        ("1 - 2*x + x^2/4", lambda x, y, t: 1 - 2 * x + x ** 2 / 4),
        ("-x^2", lambda x, y, t: -(x ** 2)),
        ("(x + y)^3", lambda x, y, t: (x + y) ** 3),
        ("1.5e-2 * x", lambda x, y, t: 0.015 * x),
        ("x - -y", lambda x, y, t: x + y),
        ("2/(1 + x^2)", lambda x, y, t: 2 / (1 + x ** 2)),
    ]
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 2.0, size=(20, 3))
    for text, ref in cases:
        e = parse_expression(text)
        for x, y, t in pts:
            assert e(x, y, t) == pytest.approx(ref(x, y, t), rel=1e-14, abs=1e-14)


def test_parse_precedence_and_unary():
    e = parse_expression("-x^2 + 2*3")
    assert e(2.0) == pytest.approx(2.0)
    assert parse_expression("2*x^2")(3.0) == pytest.approx(18.0)
    assert parse_expression("-(x)^2")(3.0) == pytest.approx(-9.0)


@pytest.mark.parametrize("text", [
    "",
    "   ",
    "x +",
    "2 **( x)",
    "x^0.5",
    "x^y",
    "sin()",
    "unknown(x)",
    "q + 1",
    "(x + y",
    "x) ",
    "1 2",
    "1/0",
    "x/0",
    "2*x/(3-3)",
    "0^-1",
    "1e200^2",
    "1e200*1e200",
    "1e308 + 1e308",
    "1e300/1e-300",
    "1e999",
])
def test_parse_errors(text):
    with pytest.raises(ExpressionError):
        parse_expression(text)


def test_parse_error_reports_position():
    with pytest.raises(ExpressionError) as err:
        parse_expression("x + $")
    assert "position" in str(err.value)


def test_evaluation_broadcasts():
    e = parse_expression("x*y + t")
    x = np.linspace(0, 1, 5)
    y = np.linspace(1, 2, 5)
    out = e(x, y, 0.5)
    assert out.shape == (5,)
    np.testing.assert_allclose(out, x * y + 0.5)
    # scalars come back as plain floats
    assert isinstance(e(0.3, 0.4, 0.0), float)
    # constants broadcast to the requested shape
    c = parse_expression("3.25")
    assert c(x, y, 0.0).shape == (5,)


def test_derivatives_match_finite_differences():
    texts = [
        "sin(pi*x)*cos(pi*y)*exp(-t)",
        "x^3*y - 2*x*y^2 + t^2",
        "exp(x*y)/(2 + t)",
        "cos(x - 2*y + t)",
    ]
    rng = np.random.default_rng(11)
    h = 1e-6
    for text in texts:
        e = parse_expression(text)
        for var in ("x", "y", "t"):
            de = e.diff(var)
            for _ in range(10):
                x, y, t = rng.uniform(0.2, 0.8, size=3)
                args = {"x": x, "y": y, "t": t}
                up = dict(args); up[var] += h
                dn = dict(args); dn[var] -= h
                fd = (e(**up) - e(**dn)) / (2 * h)
                assert de(**args) == pytest.approx(fd, rel=5e-8, abs=5e-8)


def test_stream_function_fields_are_divergence_free():
    psi = Sin(PI * X) * Sin(PI * Y) * Sin(PI * Y) * Exp(-T)
    u = (psi.diff("y"), -psi.diff("x"))
    d = div(u)
    rng = np.random.default_rng(3)
    for _ in range(25):
        x, y, t = rng.uniform(0.0, 1.0, size=3)
        assert abs(d(x, y, t)) < 1e-12


def test_grad_dt_and_sym_grad_helpers():
    f = X * X * Y + T * Y
    gx, gy = grad(f)
    assert gx(1.0, 2.0, 3.0) == pytest.approx(4.0)
    assert gy(1.0, 2.0, 3.0) == pytest.approx(1.0 + 3.0)
    assert dt(f)(1.0, 2.0, 3.0) == pytest.approx(2.0)
    fx, fy = dt((f, f))
    assert fx(1.0, 2.0, 0.0) == pytest.approx(2.0)

    v = (X * Y, X - Y)
    dsym = sym_grad(v)
    assert dsym[0][1](2.0, 3.0, 0.0) == pytest.approx(dsym[1][0](2.0, 3.0, 0.0))
    assert dsym[0][0](2.0, 3.0, 0.0) == pytest.approx(3.0)
    assert dsym[1][1](2.0, 3.0, 0.0) == pytest.approx(-1.0)
    assert dsym[0][1](2.0, 3.0, 0.0) == pytest.approx(0.5 * (2.0 + 1.0))


def test_operator_folding_keeps_values():
    e = (X * 1.0 + 0.0) - 0.0
    assert repr(e) == repr(X)
    assert (Const(2.0) * Const(3.0))(0.0) == pytest.approx(6.0)
    z = Const(0.0) * Sin(X)
    assert z(0.7) == 0.0
    with pytest.raises(TypeError):
        X + "one"
    with pytest.raises(ExpressionError):
        (X + Y) ** 0.5
    p = (X + Y) ** 0
    assert p(5.0, 9.0) == 1.0


def test_time_slice_of_cos_data():
    e = parse_expression("cos(2*t)*x")
    assert e.diff("t")(0.5, 0.0, 0.25) == pytest.approx(-2 * math.sin(0.5) * 0.5)
    assert Cos(T)(t=0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("expr", [Const(2.5), X, Sin(PI * X) * Y + T],
                         ids=["constant", "coordinate", "compound"])
def test_mutating_a_result_never_changes_a_later_evaluation(expr):
    # arrays that own their data, as a caller's usually do
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    y = x + 1.0
    x_ro = x.copy()
    x_ro.setflags(write=False)
    for xs in (x, x_ro):
        first = expr(xs, y, 0.3)
        expected = first.copy()
        assert first.flags.writeable
        first[...] = -7.0
        np.testing.assert_array_equal(expr(xs, y, 0.3), expected)
    np.testing.assert_array_equal(x, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(y, [1.0, 1.25, 1.5, 1.75, 2.0])


def _expressions_in(obj):
    """Every expression held by a manufactured case, its data included."""
    if isinstance(obj, Expr):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _expressions_in(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _expressions_in(getattr(obj, f.name))


# the manufactured cases hold no quotient of non-constant expressions
QUOTIENTS = ("exp(x*y)/(2 + t)", "sin(pi*x)/(1 + y^2)^2 - t/(3 + x)^-1")


@pytest.mark.parametrize("source", CASE_IDS + ("quotients",))
def test_evaluation_matches_the_tree_walk_oracle(source):
    q = cell_quadrature(build_rect_two_domain(4, 4, 0.5), None,
                        LOAD_ORDER)
    times = np.array([0.0, 0.3, 1.7])[:, None, None]
    fields = ([parse_expression(text) for text in QUOTIENTS]
              if source == "quotients"
              else list(_expressions_in(manufactured_case(source))))
    assert fields
    for field in fields:
        for e in (field, *(field.diff(v) for v in "xyt")):
            for t in (0.25, times):
                assert np.array_equal(e(q.x, q.y, t),
                                      oracles.tree_walk_eval(e, q.x, q.y, t))


def test_equal_subtrees_are_one_object():
    built = Sin(PI * X) * Y + T ** 2
    parsed = parse_expression("sin(pi*x)*y + t^2")
    assert built is parsed
    assert built.diff("x") is parsed.diff("x")
    assert Cos(PI * X) is built.diff("x").args[0].args[0]
    # constants are keyed by their bits
    assert Const(0.0) is not Const(-0.0)
    assert repr(Const(-0.0)) == "-0.0"


def test_a_call_computes_each_distinct_subtree_once(monkeypatch):
    # the smooth-trig forcing holds 42 sin/cos nodes, 6 of them distinct
    f = manufactured_case("smooth-trig").data.f_f[0]
    calls = []
    for op in ("sin", "cos"):
        monkeypatch.setitem(expressions._EVAL, op,
                            lambda v, fn=expressions._EVAL[op]:
                            calls.append(fn) or fn(v))
    f(np.linspace(0.0, 1.0, 7), 0.6, 0.1)
    assert len(calls) == 6


# ---------------------------------------------------------------------------
# separation into time factors times space fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ("readme",) + CASE_IDS)
def test_separation_is_exact_at_random_points_and_times(name):
    data = oracles.data_set(name)
    fields = list(_expressions_in(data))
    fields += list(_expressions_in(data.time_derivative()))
    x, y, t = np.random.default_rng(3).random((3, 2000)) * [[1], [1], [2]]
    for field in fields:
        terms = expressions.separate(field)
        # every term separates: no space field of t, no time factor of x, y
        assert all("t" not in s.variables for _, s in terms), field
        assert all(not tau.variables & {"x", "y"} for tau, _ in terms)
        assert len({id(tau) for tau, _ in terms}) == len(terms)
        exact = field(x, y, t)
        summed = sum((tau(t=t) * s(x, y) for tau, s in terms),
                     np.zeros_like(x))
        assert np.abs(summed - exact).max() <= 1e-14 * np.abs(exact).max()


def test_separation_groups_by_time_factor_and_keeps_mixed_terms_whole():
    pe = parse_expression
    terms = expressions.separate(
        pe("0.4*sin(pi*x)*cos(t) - 2*x*cos(t) + 0.2*(1 + 0.5*sin(t))"))
    assert [tau for tau, _ in terms] == [Cos(T), Const(1.0), Sin(T)]
    # constants and signs go to the space side
    assert [s for _, s in terms][1:] == [Const(0.2), Const(0.1)]
    assert expressions.separate(pe("(x + t)^2"))[2] == (T * T, Const(1.0))
    assert expressions.separate(pe("x/(1 + t)")) == (
        (Const(1.0) / (1.0 + T), X),)
    assert expressions.separate(pe("exp(x)/(2 + y)*t")) == (
        (T, pe("exp(x)/(2 + y)")),)
    # a term that mixes t with x or y is one space-time term
    mixed = pe("sin(pi*x*t)")
    assert expressions.separate(mixed) == ((Const(1.0), mixed),)
    assert expressions.separate(pe("exp(x)/(1 + x*t)"))[0][1].variables \
        == {"x", "t"}
    # zero space fields are dropped, also where constants cancel
    assert expressions.separate(pe("0")) == ()
    assert expressions.separate(pe("2*t - t*2")) == ()
