"""Parser for textual series expressions like ``1 + 2*x^1.5 - x*y``.

Grammar (spaces and tabs between tokens are skipped; other whitespace is refused):

    expr   := sign? term (("+" | "-") term)*
    term   := number? ("*"? var)*        -- at least a number or a variable
    var    := ("x" | "y") ("^" number)?
    number := unsigned decimal literal, optional exponent part

A sign is only admitted at the head of the expression; elsewhere "+"/"-"
separate terms.  Variable exponents must be non-negative.  Repeated
variables in one term multiply (``x*x^0.5`` is ``x^1.5``), and duplicate
monomials across terms merge during normalization.  Exponents add as the
decimals they print as, so ``x^0.1*x^0.2`` is ``x^0.3``.  A literal that
overflows a double, a term whose exponents add up past one, and terms whose
merged coefficient overflows are rejected rather than read as ``inf``.
"""

import math

from .series import FracSeries, FracTerm, _decimal_sum

__all__ = ["SeriesParseError", "parse_series"]

_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_WS = r"[ \t]+"


class SeriesParseError(ValueError):
    """Malformed series expression; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


class _Tokens:
    def __init__(self, text: str):
        import re  # a parse alone needs it: table and scan start without re

        # re's own cache makes each compile after the first one lookup
        self._number, self._ws = re.compile(_NUMBER).match, re.compile(_WS).match
        self.text = text
        self.pos = 0
        self._skip_ws()

    def _skip_ws(self):
        m = self._ws(self.text, self.pos)
        if m:
            self.pos = m.end()

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return "" if self.at_end() else self.text[self.pos]

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            self._skip_ws()
            return True
        return False

    def number(self) -> float | None:
        m = self._number(self.text, self.pos)
        if not m:
            return None
        value = float(m.group())
        if not math.isfinite(value):
            raise SeriesParseError("number out of range", m.start())
        self.pos = m.end()
        self._skip_ws()
        return value

    def variable(self) -> str | None:
        if self.peek() in ("x", "y"):
            var = self.text[self.pos]
            self.pos += 1
            self._skip_ws()
            return var
        return None

    def fail(self, expected: str):
        raise SeriesParseError(f"expected {expected}", self.pos)


def _parse_term(toks: _Tokens, sign: float) -> FracTerm:
    start = toks.pos
    coeff = toks.number()
    powers = {"x": [], "y": []}
    saw_var = False
    while True:
        if toks.peek() == "*" and coeff is None and not saw_var:
            raise SeriesParseError("expected number or variable", toks.pos)
        starred = toks.take("*")
        var = toks.variable()
        if var is None:
            if starred:
                toks.fail("variable 'x' or 'y' after '*'")
            break
        expo = 1.0
        if toks.take("^"):
            if toks.peek() == "-":
                raise SeriesParseError("exponents must be non-negative", toks.pos)
            got = toks.number()
            if got is None:
                toks.fail("exponent")
            expo = got
        powers[var].append(expo)
        saw_var = True
    if coeff is None and not saw_var:
        raise SeriesParseError("expected number or variable", start)
    try:
        # x^0.1*x^0.2 is x^0.3: exponents add as the decimals they print as
        px, py = _decimal_sum(powers["x"]), _decimal_sum(powers["y"])
    except OverflowError:
        raise SeriesParseError("exponent out of range", start) from None
    return FracTerm(sign * (1.0 if coeff is None else coeff), px, py)


def parse_series(text: str) -> FracSeries:
    """Parse an expression into a normalized FracSeries."""
    toks = _Tokens(text)
    if toks.at_end():
        raise SeriesParseError("expected number or variable", toks.pos)
    sign = -1.0 if toks.take("-") else 1.0
    if sign > 0:
        toks.take("+")
    terms = [_parse_term(toks, sign)]
    while not toks.at_end():
        if toks.take("+"):
            sign = 1.0
        elif toks.take("-"):
            sign = -1.0
        else:
            toks.fail("'+' or '-' between terms")
        terms.append(_parse_term(toks, sign))
    try:
        return FracSeries(terms)
    except OverflowError as exc:  # merged coefficients past the double range
        raise SeriesParseError(str(exc), 0) from None
