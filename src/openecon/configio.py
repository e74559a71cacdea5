"""Plain-text instance and scenario files, plus CSV/JSON emission helpers.

Instance files are flat `key = value` lines, at most one per parameter of
model.PARAMETERS, each value checked by check_parameter.  Both kinds of
file name a parameter by its spelling or field, resolved by _parameter.
Scenario files group lines under `[name]` headers; inside a section,
`set.<param> = v` overrides a parameter, `perturb.<param> = f` scales it,
and either `rate = r` or a `closure = kind` line, with the closure keys it
reads, selects the rate; a closure key with no such line is an error.  A
parameter, key or section given twice is an error naming both lines.

Numeric output is deterministic: JSON carries 15 significant digits, CSV
carries 6.  Float columns such as schedule points reach to_json and to_csv
as a Records, lists or float arrays, and are written with one %-pass over
all of their rows, with null in JSON for NaN and infinities; JSON is
strict, so a non-finite float anywhere else raises ValueError.
"""

from __future__ import annotations

import math

from .closure import ClosureSpec
from .model import (PARAMETERS, DomainError, ModelInstance, check_parameter,
                    with_parameters)
from .scenarios import Scenario
from .reference import baseline_instance


class ParseError(ValueError):
    """A config file line could not be interpreted."""


# ---------------------------------------------------------------------------
# Flat key-value parsing
# ---------------------------------------------------------------------------

def _parse_lines(text: str):
    """Yield (lineno, line) for each non-blank line, stripped; '#' starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line


def _split_kv(lineno: int, line: str) -> tuple[str, str]:
    if "=" not in line:
        raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


def _as_float(lineno: int, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"line {lineno}: {key} = {value!r} is not a number") from None


def _once(seen: dict[str, int], name: str, lineno: int, what: str) -> None:
    """Record `name` as given on `lineno`; a second time names both lines."""
    if name in seen:
        raise ParseError(f"line {lineno}: {what} {name!r} repeats line {seen[name]}")
    seen[name] = lineno


_SPELLINGS = {name.lower(): field for spelling, field, _, _ in PARAMETERS
              for name in (spelling, field)}


def _parameter(lineno: int, name: str) -> str:
    """The field of a parameter's file spelling or field name (e.g. 'A1',
    'tax0' or 'a1'), in any case, ignoring surrounding space."""
    try:
        return _SPELLINGS[name.strip().lower()]
    except KeyError:
        raise ParseError(f"line {lineno}: unknown parameter {name!r}") from None


def parse_instance(text: str) -> ModelInstance:
    """Build an instance from flat key-value text; unknown or repeated keys
    are errors, and a rejected value names its line.  Keys omitted from the
    file keep their embedded-baseline values."""
    values: dict[str, float] = {}
    lines: dict[str, int] = {}
    for lineno, line in _parse_lines(text):
        key, value = _split_kv(lineno, line)
        path = _parameter(lineno, key)
        _once(lines, path, lineno, "parameter")
        values[path] = _as_float(lineno, key, value)
    try:
        return with_parameters(baseline_instance(), values)
    except DomainError:
        # Every rule reads one field: the first line at fault fails alone.
        for path, value in values.items():
            _check_alone(lines[path], path, value)
        raise


def _check_alone(lineno: int, path: str, value: float) -> None:
    """check_parameter, with a rejection naming its line."""
    try:
        check_parameter(path, value)
    except DomainError as exc:
        raise DomainError(f"line {lineno}: {exc}") from None


def read_instance(path: str) -> ModelInstance:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

def _as_numbers(lineno: int, key: str, value: str) -> tuple[float, ...]:
    """Comma-separated numbers; a bracket has exactly two."""
    parts = value.split(",")
    if key == "bracket" and len(parts) != 2:
        raise ParseError(f"line {lineno}: bracket must be 'lo,hi'")
    return tuple(_as_float(lineno, key, part.strip()) for part in parts)


# A section's closure keys, read in this order: file key -> (ClosureSpec
# field, reader of (lineno, key, value)).
_CLOSURE_KEYS = {
    "closure": ("kind", lambda lineno, key, value: value),
    "bracket": ("bracket", _as_numbers),
    "target": ("target_share", _as_float),
    "sweep_grid": ("grid", _as_numbers),
}


def _build_closure(entries: dict[str, tuple[int, str, str]]) -> ClosureSpec:
    """A section's ClosureSpec; `entries` maps each key to (lineno, key,
    value).  A value's error names its own line, the spec's the closure line."""
    kwargs = {field: read(*entries[key])
              for key, (field, read) in _CLOSURE_KEYS.items() if key in entries}
    try:
        return ClosureSpec(**kwargs)
    except ValueError as exc:
        raise ParseError(f"line {entries['closure'][0]}: {exc}") from None


def parse_scenarios(text: str) -> list[Scenario]:
    """Parse a scenario file into Scenario objects, preserving order.  A
    `set.` value the baseline rejects alone raises DomainError naming its
    line; a `perturb.` factor depends on its base, so run_suite checks it."""
    sections: list[tuple[int, str, dict[str, tuple[int, str, str]]]] = []
    current: dict[str, tuple[int, str, str]] | None = None
    names: dict[str, int] = {}
    for lineno, line in _parse_lines(text):
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            _once(names, name, lineno, "section")
            current, keys = {}, {}
            sections.append((lineno, name, current))
            continue
        key, value = _split_kv(lineno, line)
        if current is None:
            raise ParseError(f"line {lineno}: scenario entry before any [name] header")
        _once(keys, key, lineno, "key")
        current[key] = lineno, key, value

    scenarios = []
    for header, name, entries in sections:
        overrides: dict[str, float] = {}
        perturbations: dict[str, float] = {}
        params: dict[str, int] = {}
        rate = None
        closure = None
        for key, (lineno, _, value) in entries.items():
            if key == "rate":
                rate = _as_float(lineno, key, value)
                if not math.isfinite(rate):
                    raise ParseError(f"line {lineno}: rate must be finite")
            elif key.startswith(("set.", "perturb.")):
                prefix, param = key.split(".", 1)
                path = _parameter(lineno, param)
                _once(params, f"{prefix}.{path}", lineno, "key")
                number = _as_float(lineno, key, value)
                if prefix == "set":
                    _check_alone(lineno, path, number)
                (overrides if prefix == "set" else perturbations)[path] = number
            elif key not in _CLOSURE_KEYS:
                raise ParseError(f"line {lineno}: unknown scenario key {key!r}")
            elif "closure" not in entries:
                raise ParseError(f"line {lineno}: {key} needs a closure line")
        if "closure" in entries:
            closure = _build_closure(entries)
        try:
            scenarios.append(Scenario(name=name, rate=rate, overrides=overrides,
                                      perturbations=perturbations, closure=closure))
        except ValueError as exc:
            raise ParseError(f"line {header}: {exc}") from None
    return scenarios


def read_scenarios(path: str) -> list[Scenario]:
    with open(path, encoding="utf-8") as fh:
        return parse_scenarios(fh.read())


# ---------------------------------------------------------------------------
# Deterministic numeric emission
# ---------------------------------------------------------------------------

def json_number(x: float) -> float:
    """Round to 15 significant digits for byte-stable JSON output; NaN and
    infinities come back unchanged."""
    return float(f"{x:.15g}")


def csv_number(x: float) -> str:
    """6 significant digits for CSV output."""
    if isinstance(x, bool):
        return str(x).lower()
    return f"{x:.6g}"


class Records:
    """Rows of floats held as columns: key -> list or float array of values,
    one per row.  to_json writes them as it writes the rows as dicts, but
    with null for a value that json_number makes NaN or infinite; to_csv
    writes the keys, in their order, as the header."""

    def __init__(self, columns: dict):
        if len(set(map(len, columns.values()))) > 1:
            raise ValueError("Records columns must have one length")
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def table(self, keys):
        """The columns of `keys` as one float array, a row per record."""
        import numpy as np
        return np.array([self.columns[k] for k in keys], dtype=float).T


def to_json(payload) -> str:
    """Serialize with stable key order and 15-significant-digit floats.

    The text is json.dumps(payload, indent=2, sort_keys=True) with every float
    passed through json_number.  A Records, as the payload or a dict value,
    is written with one %-pass over all of its rows, with null for NaN and
    infinities (RFC 8259 has no NaN); elsewhere they raise ValueError.
    """
    parts: list[str] = []
    _dump(payload, "", parts)
    parts.append("\n")
    return "".join(parts)


def _dump(node, indent: str, parts: list[str]) -> None:
    """Append to `parts` the JSON text of `node` as it appears nested at
    `indent`; the text of a Records is one part, joined only once.  Only a
    dict that holds a dict or a Records is walked key by key; any other
    subtree is one json.dumps call."""
    import json
    inner = indent + "  "
    if (isinstance(node, dict) and all(isinstance(k, str) for k in node)
            and any(isinstance(v, (dict, Records)) for v in node.values())):
        opener = "{\n"
        for k in sorted(node):
            parts.append(f"{opener}{inner}{json.dumps(k)}: ")
            _dump(node[k], inner, parts)
            opener = ",\n"
        parts.append("\n" + indent + "}")
    elif isinstance(node, Records) and len(node):
        keys = sorted(node.columns)
        names = [json.dumps(k).replace("%", "%%") for k in keys]

        def template(spec):
            return (inner + "{\n" + ",\n".join(f"{inner}  {name}: {spec}"
                                               for name in names)
                    + "\n" + inner + "}")

        table = node.table(keys)
        plain = _plain_values(table).all(axis=1).tolist()
        values = table.ravel().tolist()
        odd = [i for i, ok in enumerate(plain) if not ok]
        if odd:
            # the other rows' values, through _json_floats in one call
            width = len(keys)
            texts = _json_floats(table[odd].ravel().tolist())
            for n, i in enumerate(odd):
                values[i * width:(i + 1) * width] = \
                    texts[n * width:(n + 1) * width]
        floats, texts = template("%.15g"), template("%s")
        rows = ",\n".join([floats if ok else texts for ok in plain])
        parts += ["[\n", rows % tuple(values), "\n" + indent + "]"]
    elif isinstance(node, Records):
        parts.append("[]")
    else:
        # json's indented text nests at `indent` by prefixing each later line
        parts.append(json.dumps(_rounded(node), indent=2, sort_keys=True,
                                allow_nan=False).replace("\n", "\n" + indent))


def _plain_values(table):
    """Where the "%.15g" text of a value of `table` is already
    json.dumps(json_number(x)); a row of these takes the "%.15g" template.

    For a normal double, 15 digits round-trip, so float.__repr__ gives the
    same digits; it differs only in layout.  It adds ".0" to an integer and
    writes exponent 15 in full where %.15g switches to an exponent.  A value
    whose distance from an integer exceeds 1e-14 of it cannot round to an
    integer at 15 digits, and is below 5e13, since that distance is at most
    0.5; NaN and infinities fail the test too."""
    import numpy as np
    size = np.abs(table)
    with np.errstate(invalid="ignore"):
        return ((size >= 1e-290)
                & (np.abs(table - np.rint(table)) > 1e-14 * size))


def _rounded(node):
    if isinstance(node, dict):
        return {k: _rounded(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_rounded(v) for v in node]
    if isinstance(node, float):
        return json_number(node)
    return node


def _json_floats(column: list[float]) -> list[str]:
    """json.dumps' text of each json_number(x), or null where it is not finite.

    A 15-digit text round-trips, so float.__repr__ keeps its digits and only
    adds ".0" to an integer and writes exponent 15 in full.  Subnormals (whose
    digits may not round-trip) and exponent 308 (which may round to inf) take
    the float round trip.  Texts with no "." or "e" left are integers, or
    nan, inf and json's Infinity."""
    import json
    text = "%.15g\n" * len(column) % tuple(column)
    texts = text.split()
    if "e+15\n" in text or "e+308" in text or "e-3" in text:
        texts = [json.dumps(float(t)) if t.endswith(("e+15", "e+308"))
                 or "e-3" in t else t for t in texts]
    return [t if "." in t or "e" in t else t + ".0" if t[-1].isdigit()
            else "null" for t in texts]


def to_csv(rows: list[list] | Records) -> str:
    """Render rows of strings/numbers as simple comma-separated text.

    A Records is written as its keys, then one "%.6g" pass over its rows,
    which gives csv_number's text."""
    if isinstance(rows, Records):
        keys = list(rows.columns)
        line = ",".join(["%.6g"] * len(keys)) + "\n"
        template = _csv_row(keys).replace("%", "%%") + "\n" + line * len(rows)
        return template % tuple(rows.table(keys).ravel().tolist())
    return "\n".join(map(_csv_row, rows)) + "\n"


def _csv_row(row) -> str:
    return ",".join(cell if isinstance(cell, str) else csv_number(cell)
                    for cell in row)
