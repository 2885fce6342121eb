"""Spherical domains as expressions over join products.

A domain is either an atom (S0, T0), a named catalog domain, or a join
product of two or more such domains, held as one flat tuple of factors.
The grammar accepted by :func:`parse_domain`:

    expr   := term { "*" term }
    term   := "S0" | "T0" | named | "(" expr ")"
    named  := ident "(" arglist ")"
    ident  := "Sphere" | "T" | "HalfSphere" | "Arc" | "RegularT" | "Cap" | "Sector"
    arg    := [key "="] number
    number := float | float "*" "pi" [ "/" float ] | "pi" [ "/" float ]
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import DimensionError, ParseError


@dataclass(frozen=True)
class AtomS0:
    """Two-point sphere S^0; cone is the whole real line."""

    def __str__(self) -> str:
        return "S0"


@dataclass(frozen=True)
class AtomT0:
    """One-point domain T^0; cone is the nonnegative half-line."""

    def __str__(self) -> str:
        return "T0"


@dataclass(frozen=True)
class Named:
    kind: str  # Sphere | T | HalfSphere | Arc | RegularT | Cap | Sector
    n: int = 0
    angle: float = 0.0  # Arc phi / Cap theta / Sector theta
    angle2: float = 0.0  # Sector phi
    rho: float = 0.0  # RegularT

    def __str__(self) -> str:
        if self.kind in ("Sphere", "T", "HalfSphere"):
            return f"{self.kind}({self.n})"
        if self.kind == "Arc":
            return f"Arc(angle={self.angle!r})"
        if self.kind == "RegularT":
            return f"RegularT({self.n}, rho={self.rho!r})"
        if self.kind == "Cap":
            return f"Cap(theta={self.angle!r})"
        return f"Sector(theta={self.angle!r}, phi={self.angle2!r})"


@dataclass(frozen=True)
class Join:
    """Join product of two or more factors, none of them a Join; build
    one with :func:`join`, which flattens nested joins."""

    parts: tuple["DomainExpr", ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2 or any(isinstance(p, Join) for p in self.parts):
            raise ValueError("Join needs two or more factors, none of them a Join")

    def __str__(self) -> str:
        return " * ".join(map(str, self.parts))


DomainExpr = Union[AtomS0, AtomT0, Named, Join]


@dataclass(frozen=True)
class BoundaryCondition:
    tag: str  # "dirichlet" | "neumann"

    def __post_init__(self) -> None:
        if self.tag not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary condition {self.tag!r}")

    @property
    def is_dirichlet(self) -> bool:
        return self.tag == "dirichlet"

    def __str__(self) -> str:
        return self.tag


DIRICHLET = BoundaryCondition("dirichlet")
NEUMANN = BoundaryCondition("neumann")


@dataclass(frozen=True)
class DomainCapabilities:
    ambient_dim: int
    spectrum_exact: bool


def ambient_dim(d: DomainExpr) -> int:
    """Cone dimension n; the domain itself lives on S^{n-1}."""
    if isinstance(d, (AtomS0, AtomT0)):
        return 1
    if isinstance(d, Named):
        if d.kind in ("Sphere", "T", "HalfSphere", "RegularT"):
            return d.n
        if d.kind == "Arc":
            return 2
        return 3  # Cap, Sector on S^2
    return sum(map(ambient_dim, d.parts))


def join(*parts: DomainExpr) -> DomainExpr:
    """Join-product of the given domains, with nested joins flattened."""
    if not parts:
        raise ValueError("join requires at least one domain")
    flat: list[DomainExpr] = []
    for p in parts:
        flat.extend(factors(p))
    return flat[0] if len(flat) == 1 else Join(tuple(flat))


def factors(d: DomainExpr) -> list[DomainExpr]:
    """Join factors of d in order (a non-join domain is its own factor)."""
    return list(d.parts) if isinstance(d, Join) else [d]


def expand_named(d: DomainExpr) -> DomainExpr:
    """Rewrite catalog names into joins of atoms where possible.

    Sphere(n) -> n copies of S0, T(n) -> n copies of T0, HalfSphere(n) ->
    (n-1) S0 and one T0, RegularT(2, rho) -> Arc(arccos(-rho)). Cap,
    Sector and RegularT(n >= 3) are irreducible. Idempotent.
    """
    if isinstance(d, Join):
        return join(*map(expand_named, d.parts))
    if not isinstance(d, Named):
        return d
    if d.kind == "Sphere":
        return join(*[AtomS0()] * d.n)
    if d.kind == "T":
        return join(*[AtomT0()] * d.n)
    if d.kind == "HalfSphere":
        return join(*([AtomS0()] * (d.n - 1) + [AtomT0()]))
    if d.kind == "RegularT" and d.n == 2:
        return Named("Arc", angle=math.acos(-d.rho))
    if d.kind == "Sector" and abs(d.angle - 0.5 * math.pi) <= 1e-12:
        # sector reaching the equator is the join Arc(phi) * T0
        return join(Named("Arc", angle=d.angle2), AtomT0())
    if d.kind == "Cap" and abs(d.angle - 0.5 * math.pi) <= 1e-12:
        return join(AtomS0(), AtomS0(), AtomT0())
    return d


def capabilities(d: DomainExpr) -> DomainCapabilities:
    """What the rest of the package can do with this domain."""
    expanded = expand_named(d)
    exact = all(
        isinstance(p, (AtomS0, AtomT0)) or (isinstance(p, Named) and p.kind == "Arc")
        for p in factors(expanded)
    )
    return DomainCapabilities(ambient_dim=ambient_dim(d), spectrum_exact=exact)


def print_domain(d: DomainExpr) -> str:
    return str(d)


# --- parser -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[*(),=/]))"
)

_IDENTS = ("Sphere", "T", "HalfSphere", "Arc", "RegularT", "Cap", "Sector")

# largest cone dimension accepted: catalog names expand into one factor
# per dimension, so a dimension like 1e9 would exhaust memory
MAX_DIM = 10_000
# deepest parenthesis nesting accepted; the parser recurses per level
_MAX_NESTING = 100

# keyword and arity by catalog name: (positional names, minimum n)
_SIGNATURES = {
    "Sphere": (("n",), 1),
    "T": (("n",), 1),
    "HalfSphere": (("n",), 2),
    "Arc": (("angle",), 0),
    "RegularT": (("n", "rho"), 2),
    "Cap": (("theta",), 0),
    "Sector": (("theta", "phi"), 0),
}


@dataclass
class _Token:
    kind: str  # "num" | "ident" | punctuation itself | "end"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if stripped == "":
                break
            off = len(text) - len(stripped)
            raise ParseError(off, {"token"}, text[off])
        if m.group("num") is not None:
            out.append(_Token("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            out.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            out.append(_Token(m.group("punct"), m.group("punct"), m.start("punct")))
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


@dataclass
class _Parser:
    tokens: list[_Token]
    pos: int = 0
    depth: int = 0  # open parentheses

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.offset, {kind}, tok.text)
        return self.take()

    def expr(self) -> DomainExpr:
        parts = [self.term()]
        while self.peek().kind == "*":
            self.take()
            parts.append(self.term())
        return join(*parts)

    def term(self) -> DomainExpr:
        tok = self.peek()
        if tok.kind == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(tok.offset, {"S0", "T0", *_IDENTS}, "( nested too deep")
            self.take()
            self.depth += 1
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.kind == "ident":
            if tok.text == "S0":
                self.take()
                return AtomS0()
            if tok.text == "T0":
                self.take()
                return AtomT0()
            if tok.text in _IDENTS:
                return self.named()
            raise ParseError(tok.offset, {"S0", "T0", *_IDENTS, "("}, tok.text)
        raise ParseError(tok.offset, {"S0", "T0", *_IDENTS, "("}, tok.text)

    def named(self) -> DomainExpr:
        name_tok = self.take()
        name = name_tok.text
        self.expect("(")
        keys, min_n = _SIGNATURES[name]
        args: dict[str, float] = {}
        index = 0
        while True:
            key, value = self.arg()
            if key is None:
                if index >= len(keys):
                    raise ParseError(
                        self.peek().offset, {")"}, f"extra argument to {name}"
                    )
                key = keys[index]
            if key not in keys:
                raise ParseError(self.peek().offset, set(keys), key)
            args[key] = value
            index += 1
            if self.peek().kind == ",":
                self.take()
                continue
            break
        self.expect(")")
        return _build_named(name, args, min_n, name_tok.offset)

    def arg(self) -> tuple[str | None, float]:
        tok = self.peek()
        key = None
        if tok.kind == "ident" and tok.text != "pi" and self.tokens[self.pos + 1].kind == "=":
            key = self.take().text
            self.take()  # "="
        return key, self.number()

    def number(self) -> float:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "pi":
            self.take()
            value = math.pi
        elif tok.kind == "num":
            self.take()
            value = float(tok.text)
            if self.peek().kind == "*":
                nxt = self.tokens[self.pos + 1]
                if nxt.kind == "ident" and nxt.text == "pi":
                    self.take()
                    self.take()
                    value *= math.pi
        else:
            raise ParseError(tok.offset, {"number", "pi"}, tok.text)
        if self.peek().kind == "/":
            self.take()
            den = self.expect("num")
            if float(den.text) == 0.0:
                raise ParseError(den.offset, {"nonzero number"}, den.text)
            value /= float(den.text)
        return value


def _build_named(name: str, args: dict[str, float], min_n: int, offset: int) -> Named:
    keys, _ = _SIGNATURES[name]
    for key in keys:
        if key not in args:
            raise ParseError(offset, {key}, f"missing argument {key} to {name}")
    if name in ("Sphere", "T", "HalfSphere", "RegularT"):
        n_raw = args["n"]
        if not min_n <= n_raw <= MAX_DIM:
            raise DimensionError(f"{name} requires {min_n} <= n <= {MAX_DIM}, got {n_raw}")
        n = int(n_raw)
        if n != n_raw:
            raise DimensionError(f"{name} dimension must be an integer, got {n_raw}")
    else:
        n = 0
    if name == "Arc":
        phi = args["angle"]
        if not 0.0 < phi < 2.0 * math.pi:
            raise DimensionError(f"Arc angle must be in (0, 2*pi), got {phi}")
        return Named("Arc", angle=phi)
    if name == "RegularT":
        rho = args["rho"]
        if not 0.0 <= rho < 1.0:
            raise DimensionError(f"RegularT rho must be in [0, 1), got {rho}")
        return Named("RegularT", n=n, rho=rho)
    if name == "Cap":
        theta = args["theta"]
        if not 0.0 < theta < math.pi:
            raise DimensionError(f"Cap theta must be in (0, pi), got {theta}")
        return Named("Cap", angle=theta)
    if name == "Sector":
        theta, phi = args["theta"], args["phi"]
        if not 0.0 < theta < math.pi:
            raise DimensionError(f"Sector theta must be in (0, pi), got {theta}")
        if not 0.0 < phi < 2.0 * math.pi:
            raise DimensionError(f"Sector phi must be in (0, 2*pi), got {phi}")
        return Named("Sector", angle=theta, angle2=phi)
    return Named(name, n=n)


def parse_domain(text: str) -> DomainExpr:
    """Parse a domain expression; raises ParseError / DimensionError."""
    parser = _Parser(_tokenize(text))
    expr = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(tok.offset, {"*", "end"}, tok.text)
    if ambient_dim(expr) > MAX_DIM:
        raise DimensionError(f"cone dimension {ambient_dim(expr)} exceeds {MAX_DIM}")
    return expr
