"""Every input and dataclass field, declared once as a table, and ``read``, the one reader.

README.md shows the tables and what ``read`` refuses; every message names
``<section>.<field>`` and the value.  Rules that join fields stay with the code
that knows them; ``sized`` is the one rule for a size too large for its arrays.
The module imports nothing from the package, so every module can import it.
"""

from __future__ import annotations

import functools
import json
import numbers
from typing import NamedTuple

REQUIRED = object()

VARIANTS = ("t1", "t1tight", "cor1", "cor2")
# run tag -> (certificate tag, uses eta1, uses eta2); plain PIAG is t1 at eta1 = eta2 = 0
RUN_VARIANTS = {
    "piag": ("t1", False, False),
    "piag-m": ("cor1", True, False),
    "piag-nel": ("cor2", False, True),
    "ipiag": ("t1", True, True),
}
KINDS = ("zero", "l1", "nonneg_l1", "indicator_nonneg")


# the number rules test the exact types int and float before the slower ABC check
def is_integer(value) -> bool:
    """The integer rule of sizes, delays and seeds: an integral number that is not a bool."""
    return type(value) is int or isinstance(value, numbers.Integral) and type(value) is not bool


# JSON type -> (whether a value has it, how a message names it)
_TYPES = {
    "integer": (is_integer, "an integer"),
    "number": (lambda v: type(v) is float or type(v) is int
               or isinstance(v, numbers.Real) and type(v) is not bool, "a number"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "path": (lambda v: isinstance(v, str), "a path"),
    "object": (lambda v: isinstance(v, dict), "a JSON object"),
    "list": (lambda v: isinstance(v, list), "a JSON list"),
    "list of integers": (lambda v: isinstance(v, list) and all(map(is_integer, v)),
                         "a JSON list of integers"),
    # JSON decodes a number to an int or a float only
    "list of numbers": (lambda v: isinstance(v, list) and set(map(type, v)) <= {int, float},
                        "a JSON list of numbers"),
    "null": (lambda v: v is None, "null"),
    "auto": (lambda v: v == "auto", '"auto"'),
}


class Field(NamedTuple):
    """One key of a JSON object: its JSON types joined by " or ", its default (``REQUIRED``,
    or ``None`` for "not given"), and what it allows, an interval such as "(0, 1]" or a
    tuple of values."""

    name: str
    types: str
    default: object = REQUIRED
    allowed: object = None


class Table(NamedTuple):
    """The fields of a JSON object; the title names a top-level object in messages."""

    title: str
    fields: tuple

    def row(self, name: str) -> Field:
        return next(field for field in self.fields if field.name == name)


def read(value, table: Table, section: str = "") -> dict:
    """The checked fields of the JSON object ``value`` at ``section``, defaults filled in."""
    where = section or table.title
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {_show(value)}")
    fields = {}
    for field in table.fields:
        name = f"{section}.{field.name}" if section else field.name
        if field.name in value:
            fields[field.name] = check(field, value[field.name], name)
        elif field.default is REQUIRED:
            raise ValueError(f"{name} is required")
        else:
            fields[field.name] = field.default
    for key in value:
        if key not in fields:
            raise ValueError(f"{where} has no field {_show(key)}")
    return fields


def check(field: Field, value, name: str):
    """``value`` as ``field`` takes it, each number as a float; a ValueError names ``name``."""
    types, interval = _rule(field.types, field.allowed)
    kind = next((t for t in types if _TYPES[t][0](value)), None)
    if kind is None:
        wanted = " or ".join(_TYPES[t][1] for t in types)
        raise ValueError(f"{name} must be {wanted}, got {_show(value)}")
    taken = value
    if kind in ("number", "list of numbers"):
        try:
            taken = float(value) if kind == "number" else list(map(float, value))
        except OverflowError:
            raise ValueError(f"{name} is too large for a float, got {_show(value)}") from None
    if isinstance(field.allowed, tuple) and value not in field.allowed:
        choices = ", ".join(map(_show, field.allowed))
        raise ValueError(f"{name} must be one of {choices}, got {_show(value)}")
    if interval is not None and kind in ("integer", "number"):
        low, high, open_low, open_high = interval
        above = low < taken if open_low else low <= taken
        below = taken < high if open_high else taken <= high
        if not (above and below):
            raise ValueError(f"{name} must lie in {field.allowed}, got {_show(value)}")
    return taken


def sized(fields: dict, make, *args, **kwargs):
    """``make(*args, **kwargs)``, whose arrays the ``fields`` (name: value) size; numpy refusing
    them, or a size beyond the float range, is a ValueError naming each field and value.  A
    ValueError subclass, such as a ScheduleError, is the callee's own refusal and passes."""
    try:
        return make(*args, **kwargs)
    except (MemoryError, OverflowError, ValueError) as exc:
        if isinstance(exc, ValueError) and type(exc) is not ValueError:
            raise
        verb = "is too large for the arrays it sizes" if len(fields) == 1 else (
            "are too large for the arrays they size"
        )
        names, values = " and ".join(fields), " and ".join(map(str, fields.values()))
        raise ValueError(f"{names} {verb}, got {values} ({exc})") from None


# keyed by the row's types and allowed values, not by the row: a default such as {} makes a
# Field unhashable
@functools.lru_cache(maxsize=None)
def _rule(types: str, allowed) -> tuple:
    """(JSON types, interval) of a row, parsed once: the interval is (low, high, whether each
    end is open), or None when ``allowed`` is no interval."""
    interval = None
    if isinstance(allowed, str):
        low, high = (_bound(end) for end in allowed[1:-1].split(", "))
        interval = (low, high, allowed[0] == "(", allowed[-1] == ")")
    return tuple(types.split(" or ")), interval


def _bound(text: str):
    base, _, power = text.partition("**")
    return int(base) ** int(power) if power else float(base)


def _show(value) -> str:
    return json.dumps(value, default=lambda v: int(v) if is_integer(v) else repr(v))


# rows that two tables share, or that ``ipiag run`` reads alone
ITERS = Field("iters", "integer", 1000, "[0, inf)")
SEED = Field("seed", "integer", 0, "[0, 2**64)")
REPETITIONS = Field("repetitions", "integer", 10, "[1, inf)")

SPEC = Table("the spec", (
    Field("problem", "path or object"),
    ITERS,
    Field("schedule", "object", {}),
    REPETITIONS,
    SEED._replace(name="base_seed"),
    Field("reference", "object", {}),
    Field("configs", "list"),
))
# ``ipiag run`` reads its flags through the SCHEDULE and CONFIG rows, ITERS and SEED
SCHEDULE = Table("schedule", (
    Field("type", "string", "uniform1", ("sync", "uniform1")),
    Field("tau", "integer", 0, "[0, 2**63)"),
    Field("workers", "integer", 4, "[1, inf)"),
))
CONFIG = Table("configs[i]", (
    Field("label", "string", None),
    Field("variant", "string", "piag", tuple(RUN_VARIANTS)),
    Field("alpha", "number or auto", "auto", "(0, inf)"),
    Field("eta1", "number or auto", "auto", "[0, 1]"),
    Field("eta2", "number or auto", "auto", "[0, 1]"),
    Field("c1", "number", 0.25, "[0, 1)"),
))
# ``ipiag certify`` reads its flags through these rows
CERTIFY = Table("ipiag certify", (
    Field("L", "number", REQUIRED, "(0, inf)"),
    Field("beta", "number", REQUIRED, "(0, inf)"),
    Field("tau", "integer", REQUIRED, "[0, 2**63)"),
    Field("c1", "number", 0.0, "[0, 1)"),
    Field("variant", "string", "t1", VARIANTS),
))
REFERENCE = Table("reference", (
    Field("alpha", "number", None, "(0, inf)"),
    Field("iters", "integer", 200000, "[0, inf)"),
    Field("tol", "number", 1e-10, "[0, inf)"),
))

DOCUMENT = Table("the problem document", (
    Field("dimension", "integer", None, "[1, inf)"),
    Field("num_components", "integer", None, "[1, inf)"),
    Field("generator", "object"),
    Field("L_n", "list of numbers or null", None),
    Field("beta", "number or null", None, "(0, inf)"),
    Field("prox", "object or null", None),
    Field("known_optimum", "object or null", None),
))
OPTIMUM = Table("known_optimum", (
    Field("x", "list of numbers"),
    Field("phi", "number"),
))
GENERATOR = Table("generator", (
    Field("name", "string", REQUIRED, ("toy", "lasso")),
    Field("params", "object", {}),
))
TOY_PARAMS = Table("generator.params (toy)", (
    Field("num_components", "integer", REQUIRED, "[2, inf)"),
    Field("offset", "number", 3.0, "(0, inf)"),
    Field("l1_weight", "number", 1.0, "[0, inf)"),
))
LASSO_PARAMS = Table("generator.params (lasso)", (
    Field("rows", "integer", 60, "[1, inf)"),
    Field("cols", "integer", 200, "[1, inf)"),
    Field("sparsity", "number", 0.1, "(0, 1]"),
    Field("l1_weight", "number", 0.2, "[0, inf)"),
    SEED,
))

# line k of a JSONL delay schedule
RECORD = Table("records[k]", (
    Field("k", "integer", REQUIRED, "[0, inf)"),
    Field("refreshed", "list of integers"),
    Field("source_iter", "list of integers"),
))

# the scalar fields each library dataclass reads when built; it checks its arrays itself
SOLVER_PARAMS = Table("SolverParams", (
    CONFIG.row("alpha")._replace(types="number", default=REQUIRED),
    CONFIG.row("eta1")._replace(types="number", default=0.0),
    CONFIG.row("eta2")._replace(types="number", default=0.0),
    ITERS._replace(name="max_iters"),
    REFERENCE.row("tol")._replace(name="stop_tolerance", types="number or null", default=None),
))
RATE_INPUTS = Table("RateInputs", tuple(CERTIFY.row(row)._replace(name=name) for row, name in (
    ("L", "total_lipschitz"), ("beta", "growth_constant"), ("tau", "delay"),
    ("c1", "momentum_fraction"),
)))
PROX_SPEC = Table("ProxSpec", (
    Field("kind", "string", REQUIRED, KINDS),
    TOY_PARAMS.row("l1_weight")._replace(name="weight", default=0.0),
))
COMPOSITE_PROBLEM = Table("CompositeProblem", (
    DOCUMENT.row("dimension")._replace(default=REQUIRED),
    DOCUMENT.row("num_components")._replace(default=REQUIRED),
    DOCUMENT.row("beta")._replace(name="growth_constant"),
))
