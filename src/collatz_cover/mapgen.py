"""The generalized map and the stopping-time map as views of the progression
table, plus text/CSV/JSON rendering.

The generalized map arranges, per class column, three stacked sections:

    odd   18*2^m n + offset      (equivalently 36*2^(m-1) n + offset)
    even  54*2^m n + 3*offset+1  (the tripled-plus-one image)
    next  54 n + a               (after dividing out 2^m)

The stopping-time map carries the same layout symbolically: the three
sections of row (i, m) read sigma(54n+a)+(m+1), sigma(54n+a)+m, and
sigma(54n+a). Both maps hold the table's ``Profile`` rows and differ only in
how a row renders. All builders are pure; the renderer returns deterministic
text, which the CLI writes.
"""

from __future__ import annotations

from .covering import Profile, ProfileTable
from .reports import (FORMATS, aligned, format_progression, json_text,
                      rows_to_csv)


class SchemaTable(ProfileTable):
    """The generalized map; the m = 1 rows are starred, as they open their
    section."""

    __slots__ = ()
    kind = "collatz-map"

    def cells(self, p: Profile) -> tuple[str, str, str]:
        starred = p.m == 1
        return (format_progression(p.d_modulus, p.d_offset, starred),
                format_progression(p.even_modulus, p.even_offset, starred),
                format_progression(p.next_modulus, p.next_offset, starred))

    def csv_row(self, p: Profile) -> dict:
        return {"i": p.class_index, "m": p.m,
                "odd_modulus": p.d_modulus, "odd_offset": p.d_offset,
                "even_modulus": p.even_modulus, "even_offset": p.even_offset,
                "next_modulus": p.next_modulus, "next_offset": p.next_offset,
                "starred": str(p.m == 1).lower()}

    def json_row(self, p: Profile) -> dict:
        return {"i": p.class_index, "m": p.m,
                "odd": {"modulus": p.d_modulus, "offset": p.d_offset},
                "even": {"modulus": p.even_modulus, "offset": p.even_offset},
                "next": {"modulus": p.next_modulus, "offset": p.next_offset},
                "starred": p.m == 1}


class SigmaSchemaTable(ProfileTable):
    """The stopping-time map: row (i, m) adds the increments m+1, m and 0 to
    sigma(54n + a), with base residue a = next_offset."""

    __slots__ = ()
    kind = "stopping-time-map"

    @staticmethod
    def increments(p: Profile) -> dict:
        return {"odd": p.m + 1, "even": p.m, "next": 0}

    def cells(self, p: Profile) -> tuple[str, str, str]:
        return tuple(format_sigma_term(p.next_offset, k)
                     for k in self.increments(p).values())

    def csv_row(self, p: Profile) -> dict:
        return {"i": p.class_index, "m": p.m, "base_residue": p.next_offset,
                **{f"{section}_increment": k
                   for section, k in self.increments(p).items()}}

    def json_row(self, p: Profile) -> dict:
        return {"i": p.class_index, "m": p.m, "base_residue": p.next_offset,
                "increments": self.increments(p)}


# Both builders take ProfileTable.build's rows rather than calling the
# inherited classmethod, so that a wrapper installed on ProfileTable.build
# (as the benchmark's tracer does) cannot change which table comes back.
def build_schema(max_m: int) -> SchemaTable:
    """Generalized map for all 9 classes and exponents 1..max_m."""
    return SchemaTable(max_m, ProfileTable.build(max_m).rows)


def build_sigma_schema(max_m: int) -> SigmaSchemaTable:
    """Stopping-time map for all 9 classes and exponents 1..max_m."""
    return SigmaSchemaTable(max_m, ProfileTable.build(max_m).rows)


def format_sigma_term(base_residue: int, increment: int) -> str:
    term = f"σ∞(54n+{base_residue})"
    return f"{term}+{increment}" if increment else term


def _text_column(table, i: int) -> list[str]:
    odd, even, nxt = zip(*map(table.cells, table.column(i)))
    return [f"Odd d_{i}", *odd, f"Even_{i}", *even, f"Odd d_{i}_next", *nxt]


def render_str(table, fmt: str) -> str:
    """Render a schema or stopping-time table to one of FORMATS."""
    if fmt == "text":
        return aligned(list(zip(*(_text_column(table, i) for i in range(1, 10)))))
    if fmt == "csv":
        return rows_to_csv([table.csv_row(p) for p in table.rows])
    if fmt == "json":
        classes = {str(i): [table.json_row(p) for p in table.column(i)]
                   for i in range(1, 10)}
        return json_text({"kind": table.kind, "max_m": table.max_m,
                          "classes": classes})
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")

