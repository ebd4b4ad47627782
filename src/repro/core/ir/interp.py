"""Reference interpreter for IR functions.

Two entry points:

* :func:`run_function` — executes a function in either tensor form or
  kernel form against numpy arrays. Tensor ops evaluate with vectorized
  numpy; kernel form walks the loop nests element by element (slow, but
  it is the semantic ground truth the HLS engine and the lowering are
  tested against).
* :class:`Interpreter` — reusable object exposing taint tracking: the
  set of ``secure.taint`` labels that reached each produced value, used
  by the data-protection tests.

What an elementwise tensor op or a kernel scalar op computes is not
stated here: it is the ``reference`` / ``evaluate`` column of the op
table (:mod:`repro.core.ir.dialects.elementwise`), which constant
folding calls too — so a folded constant is what this interpreter
computes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.core.ir.dialects.elementwise import REDUCE, SCALAR, TENSOR
from repro.core.ir.module import Function, Module
from repro.core.ir.ops import Block, Operation, Value
from repro.core.ir.types import (
    MemRefType,
    ScalarType,
    TensorType,
)
from repro.errors import IRError

_NUMPY_DTYPES = {
    "f32": np.float32,
    "f64": np.float64,
    "i1": np.bool_,
    "i8": np.int8,
    "i32": np.int32,
    "i64": np.int64,
    "index": np.int64,
}

def dtype_for(scalar: ScalarType) -> np.dtype:
    """Numpy dtype matching a scalar IR type."""
    return np.dtype(_NUMPY_DTYPES[scalar.name])


class Interpreter:
    """Executes IR functions; tracks taint labels through values."""

    def __init__(self, module: Module):
        self.module = module
        #: taint labels attached to each live value id
        self.taints: Dict[int, Set[str]] = {}
        #: labels that reached a secure.check
        self.flagged: List[Tuple[str, Set[str]]] = []

    # ------------------------------------------------------------------

    def run(self, function_name: str, *args: Any) -> List[Any]:
        """Run a function by name; returns its result list.

        For kernel-form functions, memref arguments must be numpy
        arrays and are mutated in place (out-parameters receive the
        results).
        """
        function = self.module.find_function(function_name)
        if function is None:
            raise IRError(f"no function named {function_name!r}")
        return self.run_function(function, *args)

    def run_function(self, function: Function, *args: Any) -> List[Any]:
        """Run a function wrapper with positional arguments."""
        expected = len(function.type.inputs)
        if len(args) != expected:
            raise IRError(
                f"{function.name}: expected {expected} arguments, "
                f"got {len(args)}"
            )
        env: Dict[Value, Any] = {}
        for value, arg, declared in zip(
            function.arguments, args, function.type.inputs
        ):
            env[value] = self._coerce(arg, declared)
        return self._run_block(function.entry_block, env)

    @staticmethod
    def _coerce(arg: Any, declared) -> Any:
        if isinstance(declared, (TensorType, MemRefType)):
            array = np.asarray(arg, dtype=dtype_for(declared.element))
            if tuple(array.shape) != tuple(declared.shape):
                raise IRError(
                    f"argument shape {array.shape} does not match "
                    f"declared {declared.shape}"
                )
            return array
        return arg

    # ------------------------------------------------------------------

    def _run_block(self, block: Block, env: Dict[Value, Any]) -> List[Any]:
        for op in block.operations:
            result = self._run_op(op, env)
            if result is not None:
                return result
        return []

    def _taint_of(self, operands: Sequence[Value]) -> Set[str]:
        labels: Set[str] = set()
        for operand in operands:
            labels |= self.taints.get(id(operand), set())
        return labels

    def _set_result(self, op: Operation, env: Dict[Value, Any],
                    value: Any) -> None:
        env[op.results[0]] = value
        inherited = self._taint_of(op.operands)
        if inherited:
            self.taints[id(op.results[0])] = inherited

    def _run_op(self, op: Operation, env: Dict[Value, Any]):
        name = op.name

        if name == "func.return":
            return [env[operand] for operand in op.operands]

        if name in TENSOR:
            self._set_result(op, env, TENSOR[name].reference(
                *[env[operand] for operand in op.operands]))
        elif name == "tensor.matmul":
            self._set_result(
                op, env, env[op.operands[0]] @ env[op.operands[1]]
            )
        elif name == "tensor.transpose":
            perm = tuple(op.attr("permutation"))
            self._set_result(op, env, np.transpose(
                env[op.operands[0]], perm))
        elif name == "tensor.reduce":
            source = env[op.operands[0]]
            axes = tuple(op.attr("axes"))
            reduced = REDUCE[op.attr("kind")].reference(source, axis=axes)
            result_type = op.results[0].type
            reduced = np.asarray(reduced).reshape(result_type.shape)
            self._set_result(op, env, reduced)
        elif name == "tensor.reshape":
            result_type: TensorType = op.results[0].type
            self._set_result(
                op, env, env[op.operands[0]].reshape(result_type.shape)
            )
        elif name == "tensor.constant":
            result_type = op.results[0].type
            fill = op.attr("value")
            array = np.full(
                result_type.shape, fill, dtype=dtype_for(result_type.element)
            )
            self._set_result(op, env, array)
        elif name == "tensor.splat":
            result_type = op.results[0].type
            array = np.full(
                result_type.shape,
                env[op.operands[0]],
                dtype=dtype_for(result_type.element),
            )
            self._set_result(op, env, array)
        elif name == "tensor.contract":
            spec = op.attr("indexing")
            arrays = [env[operand] for operand in op.operands]
            self._set_result(op, env, np.einsum(spec, *arrays))

        elif name == "kernel.const":
            env[op.results[0]] = op.attr("value")
        elif name == "kernel.alloc":
            memref: MemRefType = op.results[0].type
            env[op.results[0]] = np.zeros(
                memref.shape, dtype=dtype_for(memref.element)
            )
        elif name == "kernel.view":
            memref = op.results[0].type
            env[op.results[0]] = env[op.operands[0]].reshape(memref.shape)
        elif name == "kernel.load":
            array = env[op.operands[0]]
            indices = tuple(int(env[v]) for v in op.operands[1:])
            self._set_result(op, env, array[indices].item())
        elif name == "kernel.store":
            value = env[op.operands[0]]
            array = env[op.operands[1]]
            indices = tuple(int(env[v]) for v in op.operands[2:])
            array[indices] = value
            labels = self._taint_of(op.operands[:1])
            if labels:
                existing = self.taints.setdefault(id(op.operands[1]), set())
                existing |= labels
        elif name in SCALAR:
            self._set_result(op, env, SCALAR[name].evaluate(
                *[env[operand] for operand in op.operands]))
        elif name == "kernel.for":
            lower, upper = op.attr("lower"), op.attr("upper")
            step = op.attr("step")
            body = op.regions[0].blocks[0]
            for iteration in range(lower, upper, step):
                env[body.arguments[0]] = iteration
                early = self._run_block_loop(body, env)
                if early is not None:
                    return early
        elif name == "kernel.yield":
            pass
        elif name == "kernel.call" or name == "func.call":
            callee = self.module.find_function(op.attr("callee"))
            if callee is None:
                raise IRError(f"call to unknown symbol {op.attr('callee')}")
            results = self.run_function(
                callee, *[env[operand] for operand in op.operands]
            )
            for value, result in zip(op.results, results):
                env[value] = result

        elif name == "secure.taint":
            env[op.results[0]] = env[op.operands[0]]
            labels = self.taints.setdefault(id(op.results[0]), set())
            labels.add(op.attr("label"))
            # Arrays alias: taint the underlying operand too.
            self.taints.setdefault(id(op.operands[0]), set()).add(
                op.attr("label")
            )
        elif name == "secure.declassify":
            env[op.results[0]] = env[op.operands[0]]
            self.taints[id(op.results[0])] = set()
        elif name == "secure.check":
            labels = self._taint_of(op.operands)
            if labels:
                self.flagged.append((op.attr("policy"), labels))
        elif name in ("secure.encrypt", "secure.decrypt"):
            # Functionally a passthrough at this level; cost is modeled
            # by the HLS/runtime layers.
            env[op.results[0]] = env[op.operands[0]]
            if name == "secure.encrypt":
                self.taints[id(op.results[0])] = set()
            else:
                self._set_result(op, env, env[op.operands[0]])
        elif name == "secure.monitor":
            pass
        else:
            raise IRError(f"interpreter: unsupported operation {name}")
        return None

    def _run_block_loop(self, block: Block, env: Dict[Value, Any]):
        """Run a loop body; returns early results if a return occurred."""
        for op in block.operations:
            result = self._run_op(op, env)
            if result is not None:
                return result
        return None


def run_function(module: Module, name: str, *args: Any) -> List[Any]:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(module).run(name, *args)
