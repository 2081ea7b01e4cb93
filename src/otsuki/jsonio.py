"""Deterministic JSON with floats printed to 17 significant digits.

17 digits round-trip IEEE doubles exactly, so two runs over identical
inputs emit byte-identical documents (a timestamp field aside).
"""

from __future__ import annotations

import math

# the escapes of a JSON string: the backslash, the quote and every control
# character, a newline as \n
_ESCAPES = {**{c: f"\\u{c:04x}" for c in range(0x20)}, ord("\n"): "\\n",
            ord('"'): '\\"', ord("\\"): "\\\\"}


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    if x == int(x) and abs(x) < 1e16:
        return format(x, ".1f")
    return format(x, ".17g")


def dumps(obj, indent: int = 2) -> str:
    out: list[str] = []
    _emit(obj, out, indent, 0)
    return "".join(out)


def _emit(obj, out, indent, level):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.translate(_ESCAPES) + '"')
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f'{pad_in}"{str(k).translate(_ESCAPES)}": ')
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        simple = all(isinstance(v, (int, float, bool, str, type(None)))
                     for v in seq)
        if simple and len(seq) <= 8:
            out.append("[")
            for i, v in enumerate(seq):
                _emit(v, out, indent, level + 1)
                if i + 1 < len(seq):
                    out.append(", ")
            out.append("]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad_in)
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")
