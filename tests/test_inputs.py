"""The input declarations in ``ipiag.inputs``: README shows each table as declared, the
spec dataclasses agree with their params tables, and every interval keeps its ends."""

import dataclasses
import json
import pathlib
import re

import pytest

from ipiag import LassoSpec, ToySpec, inputs

TABLES = [
    inputs.SPEC, inputs.SCHEDULE, inputs.CONFIG, inputs.REFERENCE,
    inputs.DOCUMENT, inputs.GENERATOR, inputs.TOY_PARAMS, inputs.LASSO_PARAMS, inputs.RECORD,
    inputs.CERTIFY,
]
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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
    assert render(table) in README.read_text(encoding="utf-8"), "README lacks:\n" + render(table)


@pytest.mark.parametrize(
    "spec, table", [(ToySpec, inputs.TOY_PARAMS), (LassoSpec, inputs.LASSO_PARAMS)]
)
def test_the_spec_dataclasses_take_the_declared_params_and_defaults(spec, table):
    fields = {
        field.name: inputs.REQUIRED if field.default is dataclasses.MISSING else field.default
        for field in dataclasses.fields(spec)
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
    assert inputs.read({"type": "sync"}, inputs.SCHEDULE, "schedule") == {
        "type": "sync", "tau": 0, "workers": 4,
    }
