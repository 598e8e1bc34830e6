"""Expression parser and canonical printer for rational functions.

Grammar (EBNF):

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = ("+" | "-") factor | power ;
    power   = atom [ "^" integer ] ;
    atom    = rational | variable | "(" expr ")" ;
    rational = integer [ "/" integer ] ;   (* "/" binds as division anyway *)

Whitespace is ignored.  Exponents are nonnegative integers.  The canonical
printer emits fully parenthesized text with "^" exponents, so every printed
expression reparses to the same canonical RatFunc.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExprSyntaxError, ZeroDenominator
from .poly import BivarPoly
from .ratfunc import RatFunc


class _Parser:
    def __init__(self, text: str, variables):
        self.text = text
        self.pos = 0
        self.vars = tuple(variables)
        if len(self.vars) != 2:
            raise ValueError("exactly two variable names required")
        if self.vars[0] == self.vars[1]:
            raise ValueError(f"the two variable names are both {self.vars[0]!r}")

    def error(self, msg: str):
        raise ExprSyntaxError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> RatFunc:
        e = self.expr()
        if self.peek():
            self.error(f"unexpected character {self.peek()!r}")
        return e

    def expr(self) -> RatFunc:
        e = self.term()
        while True:
            if self.take("+"):
                e = e + self.term()
            elif self.take("-"):
                e = e - self.term()
            else:
                return e

    def term(self) -> RatFunc:
        e = self.factor()
        while True:
            if self.take("*"):
                e = e * self.factor()
            elif self.take("/"):
                d = self.factor()
                if d.is_zero():
                    raise ZeroDenominator(
                        f"division by the zero polynomial at position {self.pos}"
                    )
                e = e / d
            else:
                return e

    def factor(self) -> RatFunc:
        if self.take("+"):
            return self.factor()
        if self.take("-"):
            return -self.factor()
        return self.power()

    def power(self) -> RatFunc:
        base = self.atom()
        if self.take("^"):
            n = self.integer()
            return RatFunc(base.num**n, base.den**n)
        return base

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a nonnegative integer")
        return int(self.text[start : self.pos])

    def atom(self) -> RatFunc:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            e = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return e
        if ch.isdigit():
            return RatFunc.const(self.integer())
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name == self.vars[0]:
                return RatFunc.var("x")
            if name == self.vars[1]:
                return RatFunc.var("y")
            self.pos = start
            self.error(f"unknown variable {name!r}")
        self.error("expected a number, variable or '('")


def parse_ratfunc(text: str, variables=("x", "y")) -> RatFunc:
    """Parse an expression into a canonical reduced RatFunc."""
    return _Parser(text, variables).parse()


def _format_poly(p: BivarPoly, lc: int, variables) -> str:
    """p / lc, with rational coefficients."""
    if p.is_zero():
        return "0"
    vx, vy = variables
    parts = []
    for e in sorted(p.terms, key=BivarPoly._key, reverse=True):
        c = Fraction(p.terms[e], lc)
        atoms = []
        if abs(c) != 1 or e == (0, 0):
            if c.denominator == 1:
                atoms.append(str(abs(c.numerator)))
            else:
                atoms.append(f"({abs(c.numerator)}/{c.denominator})")
        if e[0]:
            atoms.append(vx if e[0] == 1 else f"{vx}^{e[0]}")
        if e[1]:
            atoms.append(vy if e[1] == 1 else f"{vy}^{e[1]}")
        body = "*".join(atoms)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def format_ratfunc(f: RatFunc, variables=("x", "y")) -> str:
    """Canonical printed form; valid parser input (round-trips exactly).
    Both parts are divided by the denominator's leading coefficient, so a
    constant denominator is not printed."""
    lc = f.den.leading_coeff()
    num = _format_poly(f.num, lc, variables)
    if f.den.is_constant():
        return f"({num})" if " " in num or num.startswith("-") else num
    den = _format_poly(f.den, lc, variables)
    return f"({num})/({den})"
