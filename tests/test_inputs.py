"""The input declarations in ``ipiag.inputs``: README shows each table as declared, the
dataclasses agree with their tables, every interval keeps its ends, and the module imports
nothing from the package."""

import ast
import dataclasses
import json
import numbers
import pathlib
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from ipiag import LassoSpec, ProxSpec, RateInputs, SolverParams, ToySpec, inputs

TABLES = [
    inputs.SPEC, inputs.SCHEDULE, inputs.CONFIG, inputs.REFERENCE,
    inputs.DOCUMENT, inputs.OPTIMUM, inputs.GENERATOR, inputs.TOY_PARAMS, inputs.LASSO_PARAMS,
    inputs.RECORD, inputs.CERTIFY,
    inputs.SOLVER_PARAMS, inputs.RATE_INPUTS, inputs.PROX_SPEC, inputs.COMPOSITE_PROBLEM,
]
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
INPUTS = pathlib.Path(inputs.__file__)


def render(table) -> str:
    """A table as README shows it: one row per field with its JSON type, range and default."""
    lines = [f"**{table.title}**", "", "| field | type | range | default |", "|---|---|---|---|"]
    for field in table.fields:
        if isinstance(field.allowed, tuple):
            allowed = ", ".join(f"`{json.dumps(value)}`" for value in field.allowed)
        else:
            allowed = f"`{field.allowed}`" if field.allowed else ""
        if field.default is inputs.REQUIRED:
            default = "required"
        else:
            default = "—" if field.default is None else f"`{json.dumps(field.default)}`"
        lines.append(f"| `{field.name}` | {field.types} | {allowed} | {default} |")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("table", TABLES, ids=[table.title for table in TABLES])
def test_readme_shows_every_table_as_declared(table):
    # the blank line after it ends the table, so a row the table no longer declares fails too
    shown = render(table) + "\n"
    assert shown in README.read_text(encoding="utf-8"), "README lacks:\n" + render(table)


@pytest.mark.parametrize("spec, table", [
    (ToySpec, inputs.TOY_PARAMS), (LassoSpec, inputs.LASSO_PARAMS),
    (SolverParams, inputs.SOLVER_PARAMS), (RateInputs, inputs.RATE_INPUTS),
    (ProxSpec, inputs.PROX_SPEC),
])
def test_the_spec_dataclasses_take_the_declared_params_and_defaults(spec, table):
    fields = {
        field.name: inputs.REQUIRED if field.default is dataclasses.MISSING else field.default
        for field in dataclasses.fields(spec) if field.init
    }
    assert fields == {field.name: field.default for field in table.fields}


def _ends(field):
    """(value, taken) for each finite end of the field's interval."""
    interval = field.allowed
    low, high = interval[1:-1].split(", ")
    ends = [(int(low), interval[0] == "[")]
    if high != "inf":
        base, _, power = high.partition("**")
        ends.append((int(base) ** int(power or 1), interval[-1] == "]"))
    return ends


@pytest.mark.parametrize("field", [
    pytest.param(field, id=f"{table.title}.{field.name}")
    for table in TABLES for field in table.fields if isinstance(field.allowed, str)
])
def test_a_closed_end_is_taken_and_an_open_one_refused(field):
    for value, taken in _ends(field):
        if taken:
            assert inputs.check(field, value, field.name) == value
        else:
            with pytest.raises(ValueError, match=f"must lie in {re.escape(field.allowed)}"):
                inputs.check(field, value, field.name)


def test_a_number_is_read_as_a_float_and_an_integer_as_it_is():
    number, integer = inputs.TOY_PARAMS.fields[1], inputs.ITERS
    assert type(inputs.check(number, 3, "offset")) is float
    assert type(inputs.check(integer, 3, "iters")) is int
    # past the exact-type tests, numpy scalars and fractions are still numbers and a bool is not
    for value in (np.float32(1.5), np.int64(3), Fraction(3, 2)):
        assert type(inputs.check(number, value, "offset")) is float
    assert inputs.check(integer, np.uint8(3), "iters") == 3
    for field, value in ((number, True), (integer, False), (integer, 2.0)):
        with pytest.raises(ValueError, match="must be an? "):
            inputs.check(field, value, field.name)
    # a numpy integer, as a dataclass may hold, is shown as the integer, not as a string
    with pytest.raises(ValueError, match=r"^iters must lie in \[0, inf\), got -1$"):
        inputs.check(integer, np.int64(-1), "iters")
    assert inputs.read({"type": "sync"}, inputs.SCHEDULE, "schedule") == {
        "type": "sync", "tau": 0, "workers": 4,
    }


class MyInt(int):
    pass


@pytest.mark.parametrize("value", [
    3, -1, 2.5, MyInt(4), np.int64(3), np.uint8(2), np.float64(2.5), np.float32(1.5),
    Fraction(1, 2), Fraction(4, 1), True, False, np.True_, Decimal("1.5"), 1 + 2j, "3", None,
], ids=repr)
def test_the_number_rules_take_what_the_abcs_take_and_no_bool(value):
    integer, number = inputs._TYPES["integer"][0], inputs._TYPES["number"][0]
    assert integer(value) is inputs.is_integer(value)
    assert integer(value) is (isinstance(value, numbers.Integral) and type(value) is not bool)
    assert number(value) is (isinstance(value, numbers.Real) and type(value) is not bool)


def test_inputs_imports_nothing_from_the_package():
    # every module reads its rules from ``inputs``, so an import back into the package cycles
    for node in ast.walk(ast.parse(INPUTS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "ipiag", ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "ipiag" for alias in node.names), ast.dump(node)
