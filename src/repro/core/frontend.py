"""Import of ML exchange formats (paper §III-B: NNEF/ONNX support).

Real EVEREST ingests TensorFlow/PyTorch graphs through exchange
formats. Offline we define a compact JSON model format with the same
role — a layer list any of those exporters could produce — and
translate it into kernel-DSL source, which then flows through the
standard compilation path (DSL → tensor dialect → variants).

Format::

    {
      "name": "wind_power",
      "batch": 64,
      "input_features": 32,
      "layers": [
        {"type": "dense", "units": 24, "activation": "relu"},
        {"type": "scale", "factor": 0.5},
        {"type": "dense", "units": 1, "activation": "sigmoid"}
      ]
    }

Bias terms are passed as full ``batch x units`` matrices (the host
tiles the bias row), keeping the DSL free of implicit broadcasting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import SpecificationError

_ACTIVATIONS = {"relu", "tanh", "sigmoid", "none"}


@dataclass
class ImportedModel:
    """Result of importing a model description."""

    name: str
    dsl_source: str
    kernel_name: str


def import_model_json(text: str) -> ImportedModel:
    """Translate a JSON model into DSL source."""
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecificationError(f"malformed model JSON: {exc}") from exc
    return import_model(spec)


def import_model(spec: Dict) -> ImportedModel:
    """Translate a parsed model description into DSL source."""
    for key in ("name", "batch", "input_features", "layers"):
        if key not in spec:
            raise SpecificationError(f"model spec missing {key!r}")
    name = str(spec["name"])
    batch = int(spec["batch"])
    features = int(spec["input_features"])
    layers = spec["layers"]
    if batch <= 0 or features <= 0:
        raise SpecificationError("batch and input_features must be > 0")
    if not layers:
        raise SpecificationError("model has no layers")

    params: List[Tuple[str, Tuple[int, ...]]] = [
        ("X", (batch, features))
    ]
    body: List[str] = []
    current = "X"
    width = features
    for index, layer in enumerate(layers):
        layer_type = layer.get("type")
        if layer_type == "dense":
            units = int(layer.get("units", 0))
            if units <= 0:
                raise SpecificationError(
                    f"layer {index}: dense needs positive units"
                )
            weight = f"W{index}"
            bias = f"B{index}"
            params.append((weight, (width, units)))
            params.append((bias, (batch, units)))
            pre = f"z{index}"
            body.append(f"{pre} = {current} @ {weight} + {bias}")
            current = _apply_activation(
                body, index, pre, layer.get("activation", "none")
            )
            width = units
        elif layer_type == "scale":
            factor = float(layer.get("factor", 1.0))
            scaled = f"s{index}"
            body.append(f"{scaled} = {current} * {factor}")
            current = scaled
        elif layer_type == "activation":
            current = _apply_activation(
                body, index, current, layer.get("activation", "relu")
            )
        else:
            raise SpecificationError(
                f"layer {index}: unknown type {layer_type!r}"
            )
    body.append(f"return {current}")

    param_text = ", ".join(
        f"{pname}: tensor<{'x'.join(str(d) for d in shape)}xf32>"
        for pname, shape in params
    )
    result_type = f"tensor<{batch}x{width}xf32>"
    lines = [f"kernel {name}({param_text}) -> {result_type} {{"]
    lines.extend(f"  {line}" for line in body)
    lines.append("}")
    return ImportedModel(
        name=name,
        dsl_source="\n".join(lines),
        kernel_name=name,
    )


def _apply_activation(body: List[str], index: int, value: str,
                      activation: str) -> str:
    if activation not in _ACTIVATIONS:
        raise SpecificationError(
            f"layer {index}: unknown activation {activation!r}"
        )
    if activation == "none":
        return value
    activated = f"a{index}"
    body.append(f"{activated} = {activation}({value})")
    return activated


def export_model(name: str, batch: int, input_features: int,
                 layers: List[Dict]) -> str:
    """Serialize a model description to the exchange JSON."""
    return json.dumps(
        {
            "name": name,
            "batch": batch,
            "input_features": input_features,
            "layers": layers,
        },
        indent=2,
    )
