"""Fuzz gate for the CLI: every call of main(argv) ends within a time
budget with a documented exit code (0 ok, 2 parse, 3 numeric, 4
unsupported) and no uncaught exception.

Inputs are expressions built from the grammar (joins of up to about 1500
factors, nested parentheses, Cap, Sector and RegularT inside joins),
byte-mutated expressions, and hostile option values.
"""

import io
import signal
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conespec.cli import main

BUDGET_S = 10  # per call; the largest expansion allowed takes about 3 s
EXIT_CODES = {0, 2, 3, 4}
# derandomized, so that the suite sees the same inputs on every run
FUZZ = settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class Hang(Exception):
    pass


def call(argv: list[str]) -> int:
    def expire(signum, frame):
        raise Hang(argv)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(BUDGET_S)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                return main(argv)
            except SystemExit as exc:  # argparse refuses an option value
                return exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


NUMBERS = st.sampled_from(
    ["0", "1", "2", "3", "4", "7", "0.5", "0.9999", "1.5", "pi", "pi/2", "pi/3",
     "2*pi/3", "3*pi/2", "1e9", "1e400", "1e400/1e400", "1e-9", "1e-308", "5e-324", "12"]
)
ANGLES = st.one_of(NUMBERS, st.floats(1e-6, 7.0).map(repr))
ATOMS = st.sampled_from(["S0", "T0"])
NAMED = st.one_of(
    st.builds("Sphere({})".format, NUMBERS),
    st.builds("T({})".format, NUMBERS),
    st.builds("HalfSphere({})".format, NUMBERS),
    st.builds("Arc({})".format, ANGLES),
    st.builds("RegularT({}, rho={})".format, NUMBERS, NUMBERS),
    st.builds("Cap(theta={})".format, ANGLES),
    st.builds("Sector(theta={}, phi={})".format, ANGLES, ANGLES),
)
TERMS = st.one_of(ATOMS, ATOMS, NAMED)


@st.composite
def expressions(draw) -> str:
    """A join of terms, some of them parenthesized, repeated up to 400
    times (so up to 1600 factors)."""
    terms = draw(st.lists(TERMS, min_size=1, max_size=4))
    depth = draw(st.sampled_from([0, 0, 0, 1, 3, 150]))
    unit = "*".join(terms)
    unit = "(" * depth + unit + ")" * depth
    return "*".join([unit] * draw(st.sampled_from([1, 1, 1, 2, 50, 400])))


@st.composite
def mutated(draw) -> str:
    data = bytearray(draw(expressions()).encode()[:2000])
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        byte = draw(st.one_of(st.sampled_from(b"()*,=/.e-+ 0123456789pi"), st.integers(0, 255)))
        if op == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if op == "replace":
                data[pos] = byte
            else:
                del data[pos]
    return data.decode("utf-8", "surrogateescape")


EXPRS = st.one_of(expressions(), expressions(), mutated())
# --modes gets no large integer-form value: the estimate builds one row
# per requested mode, and nothing bounds that count yet
VALUES = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-3", "1e9", "1", "5", "12", "40"])
BC = st.sampled_from([[], ["--bc", "neumann"], ["--bc", "dirichlet"]])


def check(argv: list[str]) -> None:
    code = call(argv)
    assert code in EXIT_CODES, (code, argv)


@FUZZ
@given(EXPRS, st.lists(st.sampled_from(["--max-nu", "--format"]), max_size=1), VALUES, BC)
def test_spectrum(expr, option, value, bc):
    extra = []
    if option == ["--max-nu"]:
        extra = ["--max-nu", value]
    elif option:
        extra = ["--format", "csv"]
    check(["spectrum", expr, *extra, *bc])


@FUZZ
@given(EXPRS, EXPRS, st.sampled_from(["linear", "quadratic"]), VALUES, BC)
def test_estimate(target, reference, method, modes, bc):
    check(["estimate", "--target", target, "--reference", reference,
           "--method", method, "--modes", modes, *bc])


@FUZZ
@given(EXPRS)
def test_size(expr):
    check(["size", expr])


@FUZZ
@given(EXPRS, BC)
def test_coeffs(expr, bc):
    check(["coeffs", expr, *bc])
