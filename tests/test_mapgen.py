import json

import pytest

from collatz_cover import (SchemaTable, build_schema, build_sigma_schema,
                           render_str, sigma_infinity)
from collatz_cover.mapgen import format_progression


def rendered_rows(table):
    """Rows of the rendered JSON map, by class then exponent."""
    obj = json.loads(render_str(table, "json"))
    return [row for i in range(1, 10) for row in obj["classes"][str(i)]]


def test_schema_corner_rows():
    obj = json.loads(render_str(build_schema(18), "json"))
    first = obj["classes"]["1"][0]
    assert first["odd"] == {"modulus": 36, "offset": 19}
    assert first["even"] == {"modulus": 108, "offset": 58}
    assert first["next"] == {"modulus": 54, "offset": 29}
    assert first["starred"]
    ninth = obj["classes"]["9"][0]
    assert ninth["odd"] == {"modulus": 36, "offset": 27}
    assert ninth["even"] == {"modulus": 108, "offset": 82}
    assert ninth["next"] == {"modulus": 54, "offset": 41}


def test_schema_row_structure():
    rows = rendered_rows(build_schema(18))
    assert len(rows) == 162
    for row in rows:
        odd, even, nxt = row["odd"], row["even"], row["next"]
        assert even["offset"] == 3 * odd["offset"] + 1
        assert even["modulus"] == 3 * odd["modulus"]
        assert odd["modulus"] == 36 * 2 ** (row["m"] - 1)
        assert even["modulus"] == 108 * 2 ** (row["m"] - 1)
        assert nxt["modulus"] == 54
        assert row["starred"] == (row["m"] == 1)


def test_schema_matches_reference(reference_tables):
    obj = json.loads(render_str(build_schema(18), "json"))
    columns = reference_tables["schema_columns"]
    for i in range(1, 10):
        expected = columns[str(i)]
        got = obj["classes"][str(i)]
        for section in ("odd", "even", "next"):
            assert [[r[section]["modulus"], r[section]["offset"]]
                    for r in got] == expected[section]
    assert reference_tables["schema_star_row"] == 1


def test_first_column_next_sequence():
    table = build_schema(18)
    assert [r.next_offset for r in table.column(1)] == \
        [29, 1, 41, 7, 17, 49, 11, 19, 23, 25, 53, 13, 47, 37, 5, 43, 35, 31]


def test_sigma_schema_cells():
    table = build_sigma_schema(18)
    first = table.column(1)[0]
    assert table.cells(first)[0] == "σ∞(54n+29)+2"
    row25 = table.column(2)[4]
    assert table.cells(row25)[0] == "σ∞(54n+41)+6"
    assert table.cells(first)[2] == "σ∞(54n+29)"


def test_sigma_schema_increments():
    for row in rendered_rows(build_sigma_schema(18)):
        increments = row["increments"]
        assert increments["odd"] == row["m"] + 1
        assert increments["even"] == row["m"]
        assert increments["next"] == 0
        assert increments["odd"] - increments["even"] == 1


def test_sigma_schema_matches_reference(reference_tables):
    obj = json.loads(render_str(build_sigma_schema(18), "json"))
    columns = reference_tables["sigma_columns"]
    for i in range(1, 10):
        expected = columns[str(i)]
        got = obj["classes"][str(i)]
        for section in ("odd", "even", "next"):
            assert [[r["base_residue"], r["increments"][section]]
                    for r in got] == expected[section]


def test_sigma_schema_base_residues_come_from_schema():
    schema = rendered_rows(build_schema(18))
    sigma = rendered_rows(build_sigma_schema(18))
    assert len(schema) == len(sigma) == 162
    for a, b in zip(schema, sigma):
        assert (a["i"], a["m"]) == (b["i"], b["m"])
        assert a["next"]["offset"] == b["base_residue"]


def test_numeric_consistency_links_both_maps():
    table = build_schema(18)
    for row in table.rows:
        for n in range(3):
            member = row.d_modulus * n + row.d_offset
            if member == 1:
                continue  # sigma(1) = 0 by termination; recurrence needs d > 1
            landing = row.next_modulus * n + row.next_offset
            assert sigma_infinity(member) == \
                sigma_infinity(landing) + row.m + 1


def test_numeric_consistency_fixed_point_exception():
    # the n=0 member of 72n+1 is the terminal value itself
    row = next(r for r in build_schema(2).rows if r.d_offset == 1)
    assert (row.class_index, row.m) == (1, 2)
    assert sigma_infinity(1) == 0


def test_builders_reject_bad_max_m():
    with pytest.raises(ValueError):
        build_schema(0)
    with pytest.raises(ValueError):
        build_sigma_schema(0)


def test_render_text_layout():
    text = render_str(build_schema(1), "text")
    lines = text.splitlines()
    assert len(lines) == 6  # three sections of header + one row
    assert lines[0].startswith("Odd d_1")
    assert lines[1].startswith("36n + 19*")
    assert "108n + 58*" in lines[4 - 1]
    assert lines[5].startswith("54n + 29*")
    assert text.count("*") == 27  # every column, every section, first row only


def test_render_text_sigma_layout():
    text = render_str(build_sigma_schema(2), "text")
    lines = text.splitlines()
    assert lines[1].startswith("σ∞(54n+29)+2")
    assert lines[2].startswith("σ∞(54n+1)+3")
    assert "*" not in text


def test_render_csv_shapes():
    lines = render_str(build_schema(1), "csv").splitlines()
    assert lines[0] == ("i,m,odd_modulus,odd_offset,even_modulus,even_offset,"
                        "next_modulus,next_offset,starred")
    assert len(lines) == 1 + 9  # one data line per class at max_m=1
    assert lines[1] == "1,1,36,19,108,58,54,29,true"
    lines = render_str(build_schema(3), "csv").splitlines()
    assert len(lines) == 1 + 27
    sigma_lines = render_str(build_sigma_schema(1), "csv").splitlines()
    assert sigma_lines[0] == ("i,m,base_residue,odd_increment,"
                              "even_increment,next_increment")
    assert sigma_lines[1] == "1,1,29,2,1,0"


def test_render_json_shapes():
    obj = json.loads(render_str(build_schema(18), "json"))
    assert obj["kind"] == "collatz-map"
    assert obj["max_m"] == 18
    rows = [row for rows in obj["classes"].values() for row in rows]
    assert len(rows) == 162
    assert obj["classes"]["1"][0] == {
        "i": 1, "m": 1,
        "odd": {"modulus": 36, "offset": 19},
        "even": {"modulus": 108, "offset": 58},
        "next": {"modulus": 54, "offset": 29},
        "starred": True,
    }
    sig = json.loads(render_str(build_sigma_schema(2), "json"))
    assert sig["kind"] == "stopping-time-map"
    assert sig["classes"]["1"][0]["increments"] == {"odd": 2, "even": 1, "next": 0}


def test_render_deterministic():
    table = build_schema(5)
    for fmt in ("text", "csv", "json"):
        assert render_str(table, fmt) == render_str(build_schema(5), fmt)


def test_render_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        render_str(build_schema(1), "yaml")


def test_format_progression():
    assert format_progression(36, 19) == "36n + 19"
    assert format_progression(36, 19, starred=True) == "36n + 19*"


def test_schema_table_type():
    assert isinstance(build_schema(1), SchemaTable)
