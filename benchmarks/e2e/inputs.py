"""Seeded input generator: every input of every workload derives from
``--seed`` through ``random.Random(f"{seed}-{stream}-{index}")``.

The program under test receives only what this module returns —
kernel-DSL text, model specs, task-graph seeds and sizes, fault seeds,
job specs — never the benchmark seed or the workload name.

**Profile fixed, content seeded.** What an op costs depends on a few
shape properties (chain depth, graph size, job kind). Those follow a
fixed cycle per stream, so every seed measures the same mix and a
percentile always lands inside the same class of op; the seed draws
everything else (operators, constants, element counts, wiring, fault
times, payloads). That is what lets two seeds agree on a timing to
within a few per cent while their input digests differ.

This module imports nothing from ``repro``; the numpy references at
the bottom are written against the *recipes* recorded here, not
against anything the compiler produced.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------
# streams

#: compile_cold and compile_warm compile the same applications.
COMPILE_STREAM = "compile"
#: workflow_plain and workflow_chaos run the same graphs.
WORKFLOW_STREAM = "workflow"
CHAOS_STREAM = "workflow-faults"
SERVICE_STREAM = "service"


def rng_for(seed: int, stream: str, index: int) -> random.Random:
    """The generator behind input ``index`` of ``stream``."""
    return random.Random(f"{seed}-{stream}-{index}")


def canonical_json(payload) -> str:
    """The harness's own canonical JSON (sorted keys, no spaces)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest_of(descriptors: Sequence[Dict]) -> str:
    """Digest proving two runs measured the same inputs."""
    body = canonical_json(list(descriptors)).encode("utf-8")
    return hashlib.sha256(body).hexdigest()[:16]


# ---------------------------------------------------------------------
# compile_* : one single-kernel application per op

#: Kernel class per op index (cycled). Chain depth sets the size of the
#: fused loop body HLS has to schedule, which is what compile time
#: follows; the other three classes exercise matmul lowering, the
#: reduction path and the model-import frontend. The cycle holds three
#: cost clusters of four ops each (cheap: c8/matmul/mean; middle:
#: c24/mlp; expensive: c40/c48) so that the median falls inside the
#: middle cluster and the tail percentile inside the expensive one —
#: at a cluster boundary either would jump with the seed.
COMPILE_PROFILE: Tuple[Tuple[str, int], ...] = (
    ("chain", 8), ("mlp", 0), ("chain", 24), ("chain", 40),
    ("mean", 0), ("chain", 24), ("chain", 40), ("matmul", 0),
    ("matmul", 0), ("chain", 24), ("chain", 40), ("chain", 48),
)

_CHAIN_STEPS = (
    "add", "sub", "mul", "scale", "tanh", "sigmoid", "relu", "neg",
    "maximum", "minimum",
)


@dataclass(frozen=True)
class KernelInput:
    """One generated single-kernel application."""

    name: str
    kind: str
    #: Kernel-DSL text; None for ``mlp``, which enters through
    #: ``core.frontend.import_model`` as ``model``.
    source: Optional[str]
    model: Optional[Dict]
    #: Shapes of the kernel arguments, in order.
    arg_shapes: Tuple[Tuple[int, ...], ...]
    out_shape: Tuple[int, ...]
    #: What the numpy reference replays (see :func:`reference_output`).
    recipe: Tuple
    #: Scalar operations the element-wise IR interpreter would execute;
    #: the output check samples only cheap kernels.
    interp_ops: int

    def descriptor(self) -> Dict:
        """JSON-able identity of this input, for the input digest."""
        return {"name": self.name, "kind": self.kind,
                "source": self.source, "model": self.model}


def _chain_kernel(name: str, depth: int, rng: random.Random
                  ) -> KernelInput:
    elements = rng.choice((256, 512, 1024))
    steps: List[Tuple] = []
    lines: List[str] = []
    current = "X"
    for position in range(depth):
        step = rng.choice(_CHAIN_STEPS)
        value = f"v{position}"
        if step in ("add", "sub", "mul"):
            symbol = {"add": "+", "sub": "-", "mul": "*"}[step]
            lines.append(f"{value} = {current} {symbol} Y")
            steps.append((step,))
        elif step == "scale":
            factor = round(rng.uniform(0.6, 1.1), 3)
            lines.append(f"{value} = {current} * {factor}")
            steps.append((step, factor))
        elif step in ("maximum", "minimum"):
            lines.append(f"{value} = {step}({current}, Y)")
            steps.append((step,))
        else:
            lines.append(f"{value} = {step}({current})")
            steps.append((step,))
        current = value
    body = "\n  ".join(lines)
    shape = f"tensor<{elements}xf32>"
    source = (
        f"kernel {name}(X: {shape}, Y: {shape}) -> {shape} {{\n"
        f"  {body}\n  return {current}\n}}\n"
    )
    return KernelInput(
        name=name, kind="chain", source=source, model=None,
        arg_shapes=((elements,), (elements,)), out_shape=(elements,),
        recipe=("chain", tuple(steps)),
        interp_ops=elements * depth,
    )


def _matmul_kernel(name: str, rng: random.Random) -> KernelInput:
    size = rng.choice((16, 32, 64))
    shape = f"tensor<{size}x{size}xf32>"
    source = (
        f"kernel {name}(A: {shape}, B: {shape}) -> {shape} {{\n"
        f"  C = A @ B\n  return C\n}}\n"
    )
    return KernelInput(
        name=name, kind="matmul", source=source, model=None,
        arg_shapes=((size, size), (size, size)),
        out_shape=(size, size), recipe=("matmul",),
        interp_ops=size ** 3,
    )


def _mean_kernel(name: str, rng: random.Random) -> KernelInput:
    rows = rng.choice((16, 32, 64))
    cols = rng.choice((64, 128, 256))
    source = (
        f"kernel {name}(A: tensor<{rows}x{cols}xf32>) "
        f"-> tensor<{rows}xf32> {{\n"
        f"  M = mean(A, axes=[1])\n  return M\n}}\n"
    )
    return KernelInput(
        name=name, kind="mean", source=source, model=None,
        arg_shapes=((rows, cols),), out_shape=(rows,),
        recipe=("mean",), interp_ops=rows * cols,
    )


def _mlp_kernel(name: str, rng: random.Random) -> KernelInput:
    batch = rng.choice((8, 16))
    features = rng.choice((16, 32))
    hidden = rng.choice((12, 24))
    outputs = rng.choice((4, 8))
    activations = (rng.choice(("relu", "tanh")),
                   rng.choice(("sigmoid", "none")))
    factor = round(rng.uniform(0.5, 1.5), 3)
    model = {
        "name": name, "batch": batch, "input_features": features,
        "layers": [
            {"type": "dense", "units": hidden,
             "activation": activations[0]},
            {"type": "scale", "factor": factor},
            {"type": "dense", "units": outputs,
             "activation": activations[1]},
        ],
    }
    shapes = (
        (batch, features), (features, hidden), (batch, hidden),
        (hidden, outputs), (batch, outputs),
    )
    return KernelInput(
        name=name, kind="mlp", source=None, model=model,
        arg_shapes=shapes, out_shape=(batch, outputs),
        recipe=("mlp", activations, factor),
        interp_ops=batch * (features * hidden + hidden * outputs),
    )


def kernel_input(seed: int, index: int) -> KernelInput:
    """The application compiled by op ``index`` of ``compile_*``."""
    kind, depth = COMPILE_PROFILE[index % len(COMPILE_PROFILE)]
    rng = rng_for(seed, COMPILE_STREAM, index)
    name = f"k{index}_{kind}"
    if kind == "chain":
        return _chain_kernel(name, depth, rng)
    if kind == "matmul":
        return _matmul_kernel(name, rng)
    if kind == "mean":
        return _mean_kernel(name, rng)
    return _mlp_kernel(name, rng)


# -- numpy references (independent of the compiler) --------------------


def reference_arguments(kernel: KernelInput, rng: random.Random
                        ) -> List[np.ndarray]:
    """Seeded float32 arguments in [-1, 1] for one kernel."""
    generator = np.random.default_rng(rng.getrandbits(32))
    return [
        generator.uniform(-1.0, 1.0, size=shape).astype(np.float32)
        for shape in kernel.arg_shapes
    ]


def _activate(name: str, value: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(value, 0)
    if name == "tanh":
        return np.tanh(value)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-value))
    return value


def reference_output(kernel: KernelInput,
                     arguments: Sequence[np.ndarray]) -> np.ndarray:
    """What the kernel must compute, from its recipe alone."""
    kind = kernel.recipe[0]
    if kind == "matmul":
        return arguments[0] @ arguments[1]
    if kind == "mean":
        return arguments[0].mean(axis=1)
    if kind == "mlp":
        _kind, activations, factor = kernel.recipe
        x, w0, b0, w1, b1 = arguments
        hidden = _activate(activations[0], x @ w0 + b0) * factor
        return _activate(activations[1], hidden @ w1 + b1)
    current, other = arguments
    for step in kernel.recipe[1]:
        name = step[0]
        if name == "add":
            current = current + other
        elif name == "sub":
            current = current - other
        elif name == "mul":
            current = current * other
        elif name == "scale":
            current = current * np.float32(step[1])
        elif name == "maximum":
            current = np.maximum(current, other)
        elif name == "minimum":
            current = np.minimum(current, other)
        elif name == "neg":
            current = -current
        else:
            current = _activate(name, current)
    return current


# ---------------------------------------------------------------------
# workflow_* : one random task graph per op

#: Tasks per graph, by op index (cycled): four small, four medium, four
#: large. Host time per task grows with graph size, so the large class
#: carries the tail; equal thirds put the median inside the medium
#: class and the tail percentile inside the large one, and the three
#: ops of a cycle that get cut (indices 2, 6, 10) are one of each size.
WORKFLOW_SIZES: Tuple[int, ...] = (
    150, 300, 75, 75, 300, 75, 150, 150, 75, 300, 300, 150,
)

#: Every fourth op (index 2 modulo 4, so that even a smoke run has
#: one) is killed at its midpoint task and finished through
#: ``RunStore.prepare_resume``.
CUT_EVERY = 4


@dataclass(frozen=True)
class GraphInput:
    """One generated workflow op."""

    index: int
    num_tasks: int
    graph_seed: int
    fault_seed: int
    cut: bool

    def descriptor(self) -> Dict:
        """JSON-able identity of this input, for the input digest."""
        return {"tasks": self.num_tasks, "graph_seed": self.graph_seed,
                "fault_seed": self.fault_seed, "cut": self.cut}


def graph_input(seed: int, index: int) -> GraphInput:
    """The graph (and fault seed) of op ``index`` of ``workflow_*``."""
    return GraphInput(
        index=index,
        num_tasks=WORKFLOW_SIZES[index % len(WORKFLOW_SIZES)],
        graph_seed=rng_for(seed, WORKFLOW_STREAM, index)
        .getrandbits(31),
        fault_seed=rng_for(seed, CHAOS_STREAM, index).getrandbits(31),
        cut=index % CUT_EVERY == 2,
    )


# ---------------------------------------------------------------------
# service_drain : one wave of tagged jobs per op

WAVE_JOBS = 256
_GRAPH_SLOTS = (10, 50, 90, 130, 170, 210)
_CHAOS_SLOTS = (30, 200)
#: Every 16th wave (index 2 modulo 16) re-submits the previous wave
#: and cancels 8 of its own jobs.
SPECIAL_EVERY = 16
CANCELS_PER_SPECIAL_WAVE = 8


@dataclass(frozen=True)
class JobInput:
    """One generated job, as plain data."""

    name: str
    kind: str
    spec: Dict


def wave_jobs(seed: int, index: int) -> List[JobInput]:
    """The 256 jobs of wave ``index``: 248 noop, 6 graph, 2 chaos."""
    rng = rng_for(seed, SERVICE_STREAM, index)
    jobs = []
    for slot in range(WAVE_JOBS):
        name = f"w{index}-j{slot}"
        if slot in _GRAPH_SLOTS:
            jobs.append(JobInput(name, "graph", {
                "seed": rng.getrandbits(31), "tasks": 8,
                "workers": 2,
            }))
        elif slot in _CHAOS_SLOTS:
            jobs.append(JobInput(name, "chaos", {
                "graph_seed": rng.getrandbits(31),
                "fault_seed": rng.getrandbits(31),
                "tasks": 9, "workers": 3, "durable": True,
            }))
        else:
            jobs.append(JobInput(name, "noop", {
                "payload": rng.getrandbits(64), "wave": index,
            }))
    return jobs


def wave_is_special(index: int) -> bool:
    """Does this wave take the idempotent-resubmit + cancel path?"""
    return index % SPECIAL_EVERY == 2


def noop_digest(spec: Dict) -> str:
    """What a noop job must report, recomputed by the harness."""
    return hashlib.sha256(
        canonical_json(spec).encode()
    ).hexdigest()[:16]
