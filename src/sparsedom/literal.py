"""The one grammar of scenario literals: kernels, Young gauges, profiles.

    literal := name [ "(" [ arg { "," arg } ] ")" ] [ "+" number ]
    arg     := key "=" arg | number | literal | string

Names and keys are [a-z_]+; a number is a finite [-+0-9.eE]+: inf and nan are
strings, 1e999 an error.  `name` and `name()` are one literal.  An argument
that opens a parenthesis after a name is a nested literal; any other argument
that is not a number is a bare string (a path) up to the next "," or ")".
"""

import re

_NAME = re.compile(r"\s*([a-z_]+)\s*(?:(\()(?!\s*\))|\(\s*\))?")
_ARG = re.compile(r"\s*(?:([a-z_]+)\s*=)?([^,()]*)")
_SEP = re.compile(r"\s*([,)])")
_SHIFT = re.compile(r"\s*\+\s*([-+0-9.eE]*)")
_NUM = re.compile(r"[-+0-9.eE]+")
_NOUN = {float: "number", str: "path", tuple: "literal"}


def parse(text: str, error: type) -> tuple:
    """(name, args, kwargs, shift) of a literal.  An argument is a float, a
    str or such a tuple; shift is None when absent.  A malformed literal
    raises `error`, the caller's error class."""
    lit, pos = _literal(text, 0, error)
    if text[pos:].strip():
        raise error(f"trailing input {text[pos:]!r} in {text!r}")
    return lit


def positional(lit: tuple, kind: type, lo: int, hi: int, error: type,
               shift: bool = False) -> tuple:
    """The args of a literal without keys: lo to hi of them, each a `kind`.
    It may carry a shift only when `shift` is set."""
    name, args, kwargs, sh = lit
    if (kwargs or not lo <= len(args) <= hi or (sh is not None and not shift)
            or not all(isinstance(a, kind) for a in args)):
        count = lo if lo == hi else f"{lo} to {hi}"
        raise error(f"{name} takes {count} {_NOUN[kind]} argument(s)"
                    + " and a +shift" * shift)
    return args


def _literal(s: str, pos: int, error: type):
    m = _NAME.match(s, pos)
    if not m:
        raise error(f"expected a name at {s[pos:]!r}")
    name, sep, pos, args, kwargs = m.group(1), m.group(2), m.end(), [], {}
    while sep in ("(", ","):
        m = _ARG.match(s, pos)
        key, value, pos = m.group(1), m.group(2).strip(), m.end()
        if s.startswith("(", pos):
            value, pos = _literal(s, m.start(2), error)
        elif not value or _NUM.fullmatch(value):
            value = _number(value, error)
        if key is None:
            args.append(value)
        elif key in kwargs:
            raise error(f"repeated key {key!r} in {name}")
        else:
            kwargs[key] = value
        m = _SEP.match(s, pos)
        if not m:
            raise error(f"expected ',' or ')' at {s[pos:]!r}")
        sep, pos = m.group(1), m.end()
    m = _SHIFT.match(s, pos)
    shift = _number(m.group(1), error) if m else None
    return (name, tuple(args), kwargs, shift), (m.end() if m else pos)


def _number(raw: str, error: type) -> float:
    try:
        if abs(x := float(raw)) < float("inf"):  # 1e999 overflows to inf
            return x
    except ValueError:
        pass
    raise error(f"expected a finite number, got {raw!r}")
