"""JSON shapes shared by the WAL records and the snapshots.

Boxes, histogram state and REST requests need a stable JSON form in WAL
records and compacted snapshots, so the encoders/decoders live here.
"""

from __future__ import annotations

from typing import Any

from repro.relational.query import AttributeConstraint
from repro.market.rest import RestRequest
from repro.semstore.boxes import Box


def box_to_json(box: Box) -> list[list[int]]:
    return [list(extent) for extent in box.extents]


def box_from_json(data: list[list[int]]) -> Box:
    return Box(tuple((low, high) for low, high in data))


def constraint_to_json(constraint: AttributeConstraint) -> dict[str, Any]:
    """One REST-expressible constraint (point or range; never a set)."""
    if constraint.value is not None:
        return {"a": constraint.attribute, "v": constraint.value}
    return {"a": constraint.attribute, "lo": constraint.low, "hi": constraint.high}


def constraint_from_json(data: dict[str, Any]) -> AttributeConstraint:
    if "v" in data:
        return AttributeConstraint(data["a"], value=data["v"])
    return AttributeConstraint(data["a"], low=data["lo"], high=data["hi"])


def request_to_json(request: RestRequest) -> dict[str, Any]:
    return {
        "d": request.dataset,
        "tbl": request.table,
        "c": [constraint_to_json(c) for c in request.constraints],
    }


def request_from_json(data: dict[str, Any]) -> RestRequest:
    return RestRequest(
        data["d"],
        data["tbl"],
        tuple(constraint_from_json(c) for c in data["c"]),
    )


def rows_to_json(rows: Any) -> list[list[Any]]:
    return [list(row) for row in rows]


def rows_from_json(data: list[list[Any]]) -> list[tuple]:
    return [tuple(row) for row in data]
