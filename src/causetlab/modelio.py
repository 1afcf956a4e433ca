"""Loading and rendering of causet, model, event and region descriptions.

File formats (JSON):

Causet: {"elements": ["p", "a"], "relations": [["p", "a"]]}. Relations are
any generating set; the transitive closure is computed on load.

Model: {"causet": <causet object>, "alphabet": 2,
        "dom": "canonical" | {"<event-spec>": ["x", ...], ...},
        "measure": "uniform" | {"weights": {"010": "1/6", ...}}
                  | {"random": {"seed": 7, "denominator_bound": 100}}}
`alphabet`, `dom` and `measure` default to 2, "canonical" and "uniform".
A bare causet object is accepted wherever a model is expected.

Events are written either as an explicit list of history keys (value strings
in element order, e.g. ["00", "11"]) or as cylinder constraints
{"x": 1, "y": 0}. In explicit dom maps the event-spec key is the JSON
encoding of one of those two forms.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping

from .causet import Causet, Region, validate_causet
from .errors import LabError
from .histories import DomMap, Event, HistorySpace
from .measure import MeasureTable
from .principles import Model


class ModelFileError(LabError):
    """A model/causet file is malformed."""


def load_json_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelFileError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ModelFileError(f"{path}: top-level JSON object expected")
    return data


def _is_labels(value: Any) -> bool:
    """A JSON list of strings."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def causet_from_data(data: Mapping[str, Any]) -> Causet:
    body = data.get("causet", data)
    if not isinstance(body, dict):
        raise ModelFileError(f"causet must be an object, got {body!r}")
    if "elements" not in body:
        raise ModelFileError("no 'elements' in causet description")
    elements, relations = body["elements"], body.get("relations", [])
    if not _is_labels(elements):
        raise ModelFileError(f"elements must be a list of strings: {elements!r}")
    if not (isinstance(relations, list) and all(_is_labels(p) and len(p) == 2 for p in relations)):
        raise ModelFileError(f"relations must be a list of [label, label] pairs: {relations!r}")
    return validate_causet(elements, [tuple(p) for p in relations])


def _is_json_int(value: Any) -> bool:
    """A JSON integer. JSON true and false load as bools, which Python also
    counts as ints, and a float must not be truncated to one."""
    return isinstance(value, int) and not isinstance(value, bool)


def space_from_data(data: Mapping[str, Any]) -> HistorySpace:
    q = data.get("alphabet", 2)
    if not _is_json_int(q):
        raise ModelFileError(f"alphabet must be an integer: {q!r}")
    return HistorySpace(causet_from_data(data), q)


def parse_region(causet: Causet, spec: Any) -> Region:
    """A region written as "a,b" or as a list of labels."""
    if not (isinstance(spec, str) or _is_labels(spec)):
        raise ModelFileError(f"a region must be a string or a list of labels: {spec!r}")
    return causet.region(spec)


def parse_event(space: HistorySpace, spec: Any) -> Event:
    if isinstance(spec, str):
        spec = json.loads(spec)
    if isinstance(spec, dict):
        if not all(map(_is_json_int, spec.values())):
            raise ModelFileError(f"cylinder values must be integers: {spec!r}")
        return space.cylinder(spec)
    if isinstance(spec, list):
        if not all(isinstance(key, str) for key in spec):
            raise ModelFileError(f"history keys must be strings: {spec!r}")
        return space.event_from_histories(spec)
    raise ModelFileError(f"cannot read event description {spec!r}")


def dom_from_data(space: HistorySpace, spec: Any) -> DomMap:
    if spec in (None, "canonical"):
        return DomMap.canonical()
    if not isinstance(spec, dict):
        raise ModelFileError(f"dom must be \"canonical\" or an object, got {spec!r}")
    mapping: dict[Event, Region] = {}
    keys: dict[Event, str] = {}
    for key, region in spec.items():
        event = parse_event(space, key)
        if event in keys:
            raise ModelFileError(f"dom map names one event twice: {keys[event]!r} and {key!r}")
        keys[event] = key
        mapping[event] = parse_region(space.causet, region)
    return DomMap.explicit(mapping)


def measure_from_data(space: HistorySpace, spec: Any) -> MeasureTable:
    if spec in (None, "uniform"):
        return MeasureTable.uniform(space)
    if isinstance(spec, dict) and isinstance(spec.get("weights"), dict):
        for key, value in spec["weights"].items():
            # JSON true and false load as bools, which Fraction reads as 1 and 0
            if isinstance(value, bool):
                raise ModelFileError(f"weight of {key!r} must be a number or a \"p/q\" string: {value!r}")
        try:
            weights = {k: Fraction(v) for k, v in spec["weights"].items()}
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ModelFileError(f"bad weight in measure: {exc}") from exc
        return MeasureTable.from_weights(space, weights)
    if isinstance(spec, dict) and isinstance(spec.get("random"), dict):
        params = spec["random"]
        bound = params.get("denominator_bound", 100)
        if not (_is_json_int(bound) and bound >= 0):
            raise ModelFileError(f"denominator_bound must be a non-negative integer: {bound!r}")
        return MeasureTable.random(space, params.get("seed", 0), bound)
    raise ModelFileError(f"cannot read measure description {spec!r}")


def model_from_data(data: Mapping[str, Any], force: bool = False) -> Model:
    space = space_from_data(data)
    dom = dom_from_data(space, data.get("dom"))
    measure = measure_from_data(space, data.get("measure"))
    return Model.build(space, measure, dom, force=force)


def load_model(path: str, force: bool = False) -> Model:
    return model_from_data(load_json_file(path), force=force)


def causet_to_data(causet: Causet) -> dict:
    return {
        "elements": list(causet.elements),
        "relations": [list(p) for p in causet.relation_pairs()],
    }
