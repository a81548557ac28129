"""JSON weight-file format: load/save with bit-exact float round-trips.

Schema (version 1):

    {
      "version": 1,
      "s_in": number,
      "layers": [
        {"name": str, "rows": int, "cols": int,
         "weights": [row-major numbers], "bias": [numbers],
         "activation": {"kind": str, "params": {...}}, "s": number}
      ],
      "head": {"kind": "gaussian"|"softmax"|"custom", "params": {...}}
    }

Floats are serialized with Python's shortest round-trip repr (at most 17
significant digits), so load(save(net)) reproduces the exact 64-bit
values.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .matcore import MatCoreError
from .network import (
    CustomActivation,
    CustomHead,
    GaussianHead,
    Identity,
    LayerSpec,
    NetworkSpec,
    SmoothLeakyRelu,
    SoftmaxHead,
    ValidationError,
)


class WeightFileError(Exception):
    pass


# the serializable activations and heads, by their `kind`
_ACTIVATIONS = {cls.kind: cls for cls in (Identity, SmoothLeakyRelu, CustomActivation)}
_HEADS = {cls.kind: cls for cls in (GaussianHead, SoftmaxHead, CustomHead)}


def _spec_to_json(obj, registry: dict, what: str) -> dict:
    """{kind, params}, the params being the object's init fields in field order."""
    cls = registry.get(getattr(obj, "kind", None))
    if cls is None or not isinstance(obj, cls):
        raise WeightFileError(f"unserializable {what} {obj!r}")
    return {
        "kind": cls.kind,
        "params": {f.name: getattr(obj, f.name) for f in fields(cls) if f.init},
    }


# what each schema slot accepts, as the types json.loads returns
_JSON_TYPES = {"integer": {int}, "number": {int, float}, "number or string": {int, float, str}}


def _check_types(values: list, kind: str, what: str) -> None:
    """Raise WeightFileError unless `values` is a list of JSON `kind`s.

    The types must match exactly: int() and float() would read a JSON
    true/false as 1/0 and "3" as 3, and int() would cut 3.7 to 3.
    """
    if not (isinstance(values, list) and set(map(type, values)) <= _JSON_TYPES[kind]):
        raise WeightFileError(f"{what}: expected a JSON {kind}")


def _spec_from_json(doc: dict, registry: dict, what: str):
    kind = doc.get("kind")
    if kind not in registry:
        raise WeightFileError(f"unknown {what} kind {kind!r}")
    params = doc.get("params", {})
    spec = registry[kind](**params)
    _check_types(list(params.values()), "number or string", f"{what} params")
    return spec


def network_to_json_dict(net: NetworkSpec) -> dict:
    return {
        "version": 1,
        "s_in": net.s_in,
        "layers": [
            {
                "name": f"layer{j + 1}",
                "rows": layer.out_dim,
                "cols": layer.in_dim,
                "weights": [float(x) for x in layer.weight.reshape(-1)],
                "bias": [float(x) for x in layer.bias],
                "activation": _spec_to_json(layer.activation, _ACTIVATIONS, "activation"),
                "s": layer.s_out,
            }
            for j, layer in enumerate(net.layers)
        ],
        "head": _spec_to_json(net.head, _HEADS, "head"),
    }


# what malformed values raise while a document is turned into a network
# (OverflowError: an integer beyond float64)
_PARSE_ERRORS = (AttributeError, TypeError, ValueError, OverflowError, MatCoreError)


def _layer_from_json(j: int, rec) -> LayerSpec:
    try:
        rows, cols = rec["rows"], rec["cols"]
        _check_types([rows, cols], "integer", f"layer {j}: rows and cols")
        for key in ("weights", "bias"):
            _check_types(rec[key], "number", f"layer {j}: {key}")
        _check_types([rec["s"]], "number", f"layer {j}: s")
        weights = np.asarray(rec["weights"], dtype=np.float64)
        if weights.size != rows * cols:
            raise WeightFileError(
                f"layer {j}: {weights.size} weights for a {rows}x{cols} matrix"
            )
        return LayerSpec(
            weight=weights.reshape(rows, cols),
            bias=np.asarray(rec["bias"], dtype=np.float64),
            activation=_spec_from_json(rec["activation"], _ACTIVATIONS, "activation"),
            s_out=float(rec["s"]),
        )
    except KeyError as exc:
        raise WeightFileError(f"layer {j}: missing field {exc}") from exc
    except _PARSE_ERRORS as exc:
        raise WeightFileError(f"layer {j}: {exc}") from exc


def network_from_json_dict(doc: dict) -> NetworkSpec:
    """Build and validate a network; every malformed value raises WeightFileError."""
    if not isinstance(doc, dict):
        raise WeightFileError("weight file must hold a JSON object")
    if type(doc.get("version")) is not int or doc["version"] != 1:  # not true, not 1.0
        raise WeightFileError(f"unsupported weight-file version {doc.get('version')!r}")
    layer_docs = doc.get("layers", [])
    if not isinstance(layer_docs, list):
        raise WeightFileError("layers must be a list")
    layers = [_layer_from_json(j, rec) for j, rec in enumerate(layer_docs, start=1)]
    if not layers:
        raise WeightFileError("weight file has no layers")
    try:
        head = _spec_from_json(doc.get("head", {}), _HEADS, "head")
        _check_types([doc["s_in"]], "number", "s_in")
        s_in = float(doc["s_in"])
    except KeyError as exc:
        raise WeightFileError(f"missing field {exc}") from exc
    except _PARSE_ERRORS as exc:
        raise WeightFileError(f"invalid head or s_in: {exc}") from exc
    net = NetworkSpec(input_dim=layers[0].in_dim, layers=layers, head=head, s_in=s_in)
    net.validate()  # re-validates all structural invariants on load
    return net


def save_weights(net: NetworkSpec, path) -> None:
    Path(path).write_text(json.dumps(network_to_json_dict(net), indent=1) + "\n")


def load_weights(path) -> NetworkSpec:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise WeightFileError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except UnicodeDecodeError as exc:
        raise WeightFileError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise WeightFileError(f"{path}: JSON nested too deeply ({exc})") from exc
    try:
        return network_from_json_dict(doc)
    except ValidationError as exc:
        raise WeightFileError(f"{path}: invalid network: {exc}") from exc
