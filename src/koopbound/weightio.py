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


def _has_bool(x) -> bool:
    """Whether x is, or a list in x holds, a JSON true/false, which float()
    would read as 1.0/0.0.  x has been read as numbers, so it is shallow."""
    if not isinstance(x, list):
        return type(x) is bool
    types = set(map(type, x))
    return bool in types or (list in types and any(map(_has_bool, x)))


def _spec_from_json(doc: dict, registry: dict, what: str):
    kind = doc.get("kind")
    if kind not in registry:
        raise WeightFileError(f"unknown {what} kind {kind!r}")
    params = doc.get("params", {})
    spec = registry[kind](**params)
    if _has_bool(list(params.values())):
        raise WeightFileError(f"{what} params: true/false is not a number")
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
# (OverflowError: an infinite row count, or an integer beyond float64)
_PARSE_ERRORS = (AttributeError, TypeError, ValueError, OverflowError, MatCoreError)


def _layer_from_json(j: int, rec) -> LayerSpec:
    try:
        rows, cols = int(rec["rows"]), int(rec["cols"])
        weights = np.asarray(rec["weights"], dtype=np.float64)
        if weights.size != rows * cols:
            raise WeightFileError(
                f"layer {j}: {weights.size} weights for a {rows}x{cols} matrix"
            )
        layer = LayerSpec(
            weight=weights.reshape(rows, cols),
            bias=np.asarray(rec["bias"], dtype=np.float64),
            activation=_spec_from_json(rec["activation"], _ACTIVATIONS, "activation"),
            s_out=float(rec["s"]),
        )
        if _has_bool([rec["weights"], rec["bias"], rec["s"]]):
            raise WeightFileError(f"layer {j}: true/false is not a number")
        return layer
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
        s_in = float(doc["s_in"])
        if type(doc["s_in"]) is bool:
            raise WeightFileError("s_in: true/false is not a number")
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
