"""Lowering from the tensor dialect to kernel-dialect loop nests.

This is the bufferization + loop-materialization step of the flow in
Fig. 1: each function whose body contains tensor operations is rewritten
into *kernel form*:

* tensor-typed parameters become memref parameters;
* tensor-typed results become out-parameter memrefs (appended after the
  inputs), leaving only scalar results;
* tensor ops become explicit ``kernel.for`` nests of loads, scalar
  arithmetic and stores;
* fusion groups (from :class:`ElementwiseFusionPass`) share one loop
  nest, with intermediates kept in registers unless used outside the
  group; the kernel op an elementwise op becomes per element is a
  column of the op table (:mod:`repro.core.ir.dialects.elementwise`);
* ``tile_sizes`` attributes (from :class:`TilingPass`) turn matmuls
  into tiled 6-deep nests when the tile sizes divide the problem.

Functions already in kernel form are left untouched.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.ir.builder import Builder
from repro.core.ir.dialects.elementwise import REDUCE, TENSOR
from repro.core.ir.module import Function, Module
from repro.core.ir.ops import Operation, Value
from repro.core.ir.passes.fusion import is_elementwise
from repro.core.ir.passes.pass_manager import Pass
from repro.core.ir.types import (
    FunctionType,
    MemRefType,
    ScalarType,
    TensorType,
)
from repro.errors import PassError


def _as_memref(tensor_type: TensorType) -> MemRefType:
    return MemRefType(tensor_type.shape, tensor_type.element)


def _has_tensor_ops(function: Function) -> bool:
    return any(op.dialect == "tensor" for op in function.walk())


class LowerTensorPass(Pass):
    """Rewrite every tensor-form function into kernel form."""

    name = "lower-tensor"

    def run(self, module: Module) -> bool:
        changed = False
        for function in module.functions():
            if _has_tensor_ops(function):
                _FunctionLowering(module, function).apply()
                changed = True
        return changed


class _FunctionLowering:
    """Lowers one function; replaces it in the module."""

    def __init__(self, module: Module, function: Function):
        self.module = module
        self.function = function
        self.env: Dict[Value, Value] = {}
        self.builder = Builder()
        self._done: set = set()

    def apply(self) -> None:
        old = self.function
        old_type = old.type
        new_inputs: List = []
        for input_type in old_type.inputs:
            if isinstance(input_type, TensorType):
                new_inputs.append(_as_memref(input_type))
            else:
                new_inputs.append(input_type)
        out_params: List[MemRefType] = []
        scalar_results: List = []
        for result_type in old_type.results:
            if isinstance(result_type, TensorType):
                out_params.append(_as_memref(result_type))
            else:
                scalar_results.append(result_type)
        new_type = FunctionType(
            tuple(new_inputs) + tuple(out_params), tuple(scalar_results)
        )

        attrs = {
            key: value
            for key, value in old.op.attributes.items()
            if key not in ("sym_name", "function_type")
        }
        attrs["lowered_from"] = "tensor"
        name = old.name
        self.module.remove_function(name)
        new = self.module.add_function(name, new_type, attributes=attrs)
        self.builder.set_insertion_point(new.entry_block)

        for old_arg, new_arg in zip(
            old.arguments, new.arguments[: len(old.arguments)]
        ):
            self.env[old_arg] = new_arg
        self._out_args = new.arguments[len(old.arguments):]

        # Returned tensor values produced by ops in this function can
        # write straight into their out-parameter, skipping the final
        # copy loop. Function arguments returned verbatim still copy.
        self._return_targets: Dict[int, Value] = {}
        return_op = next(
            (op for op in old.entry_block.operations
             if op.name == "func.return"), None,
        )
        if return_op is not None:
            out_index = 0
            seen: set = set()
            for operand in return_op.operands:
                if not isinstance(operand.type, TensorType):
                    continue
                target = self._out_args[out_index]
                out_index += 1
                harmless = all(
                    user.name in ("func.return", "secure.check")
                    for user in operand.uses
                )
                if (
                    operand.producer is not None
                    and id(operand) not in seen
                    and harmless
                ):
                    self._return_targets[id(operand)] = target
                seen.add(id(operand))

        groups = self._collect_groups(old)
        emitted_groups = set()
        self._done = set()
        for op in list(old.entry_block.operations):
            if id(op) in self._done:
                continue
            group = op.attr("fusion_group")
            if group is not None and group in groups:
                if group not in emitted_groups:
                    self._emit_elementwise_group(groups[group])
                    emitted_groups.add(group)
                continue
            self._emit_op(op)
            self._done.add(id(op))

    # ------------------------------------------------------------------

    @staticmethod
    def _collect_groups(function: Function) -> Dict[int, List[Operation]]:
        groups: Dict[int, List[Operation]] = {}
        for op in function.entry_block.operations:
            group = op.attr("fusion_group")
            if group is not None:
                groups.setdefault(group, []).append(op)
        return groups

    def _ensure_available(self, value: Value) -> None:
        """Lower ``value``'s producer (recursively) if not done yet."""
        if value in self.env:
            return
        producer = value.producer
        if producer is None or id(producer) in self._done:
            return
        for operand in producer.operands:
            self._ensure_available(operand)
        self._emit_op(producer)
        self._done.add(id(producer))

    def _lookup(self, value: Value) -> Value:
        if value not in self.env:
            raise PassError(
                f"lower-tensor: no lowered value for %{value.name}"
            )
        return self.env[value]

    def _alloc_for(self, value: Value) -> Value:
        tensor_type = value.type
        if not isinstance(tensor_type, TensorType):
            raise PassError("expected tensor-typed value")
        target = self._return_targets.get(id(value))
        buffer = target if target is not None else self.builder.alloc(
            _as_memref(tensor_type)
        )
        self.env[value] = buffer
        return buffer

    def _loop_nest(self, shape: Sequence[int]) -> List:
        """Open a perfect nest over ``shape``; returns loop handles."""
        handles = []
        for extent in shape:
            handle = self.builder.for_loop(0, extent)
            handles.append(handle)
            self.builder.set_insertion_point(handle.body)
        return handles

    def _close_nest(self, handles: List, after_block) -> None:
        for handle in reversed(handles):
            self.builder.set_insertion_point(handle.body)
            # terminator may already exist if inner loop emitted it
            if (
                handle.body.terminator is None
                or handle.body.terminator.name != "kernel.yield"
            ):
                self.builder.yield_op()
        self.builder.set_insertion_point(after_block)

    # ------------------------------------------------------------------

    def _emit_op(self, op: Operation) -> None:
        name = op.name
        if name == "func.return":
            self._emit_return(op)
        elif is_elementwise(op):
            self._emit_elementwise_group([op])
        elif name == "tensor.matmul":
            self._emit_matmul(op)
        elif name == "tensor.contract":
            self._emit_contract(op)
        elif name == "tensor.reduce":
            self._emit_reduce(op)
        elif name == "tensor.transpose":
            self._emit_transpose(op)
        elif name == "tensor.constant":
            self._emit_constant(op)
        elif name == "tensor.reshape":
            self._emit_reshape(op)
        elif name == "tensor.splat":
            self._emit_splat(op)
        elif op.dialect in ("kernel", "secure", "func", "hw"):
            self._clone_through(op)
        else:
            raise PassError(f"lower-tensor: unsupported op {name}")

    def _clone_through(self, op: Operation) -> None:
        if op.regions:
            clone = op.clone(dict(self.env))
            self.builder.block.append(clone)
            for old, new in zip(op.results, clone.results):
                self.env[old] = new
            return
        new_operands = [
            self.env.get(operand, operand) for operand in op.operands
        ]
        # Type-preserving ops (secure.taint etc.) must follow the
        # tensor→memref retyping of their operands.
        result_types = []
        for result in op.results:
            if isinstance(result.type, TensorType):
                result_types.append(_as_memref(result.type))
            else:
                result_types.append(result.type)
        clone = Operation(
            op.name,
            operands=new_operands,
            result_types=result_types,
            attributes=dict(op.attributes),
        )
        self.builder.block.append(clone)
        for old, new in zip(op.results, clone.results):
            self.env[old] = new

    def _emit_return(self, op: Operation) -> None:
        scalar_values: List[Value] = []
        out_index = 0
        for operand in op.operands:
            if isinstance(operand.type, TensorType):
                source = self._lookup(operand)
                target = self._out_args[out_index]
                out_index += 1
                if source is target:
                    continue  # already written in place
                self._emit_copy(source, target, operand.type.shape)
            else:
                scalar_values.append(self._lookup(operand))
        self.builder.ret(scalar_values)

    def _emit_copy(
        self, source: Value, target: Value, shape: Sequence[int]
    ) -> None:
        outer = self.builder.block
        handles = self._loop_nest(shape)
        indices = [handle.induction_var for handle in handles]
        value = self.builder.load(source, indices)
        self.builder.store(value, target, indices)
        self._close_nest(handles, outer)

    # ------------------------------------------------------------------

    def _emit_elementwise_group(self, ops: List[Operation]) -> None:
        shape = ops[0].results[0].type.shape
        element = ops[0].results[0].type.element
        group_ids = {id(op) for op in ops}

        # Out-of-group operands defined *later* in program order (e.g.
        # a matmul feeding the middle of the chain) must be lowered
        # first. Splats and fill constants are skipped here: they are
        # inlined as scalars inside the fused loop instead of being
        # materialized into full buffers.
        for op in ops:
            for operand in op.operands:
                producer = operand.producer
                if producer is None or id(producer) in group_ids:
                    continue
                if producer.name in ("tensor.splat", "tensor.constant"):
                    for inner in producer.operands:
                        self._ensure_available(inner)
                    continue
                self._ensure_available(operand)

        materialize: Dict[int, Value] = {}
        for op in ops:
            result = op.results[0]
            needs_buffer = any(
                id(user) not in group_ids for user in result.uses
            )
            if needs_buffer or not result.uses:
                materialize[id(op)] = self._alloc_for(result)

        outer = self.builder.block
        handles = self._loop_nest(shape)
        indices = [handle.induction_var for handle in handles]

        scalars: Dict[int, Value] = {}

        def operand_scalar(operand: Value) -> Value:
            producer = operand.producer
            if producer is not None and id(producer) in scalars:
                return scalars[id(producer)]
            if producer is not None and operand not in self.env:
                if producer.name == "tensor.splat":
                    return self.env.get(
                        producer.operands[0], producer.operands[0]
                    )
                if producer.name == "tensor.constant" and isinstance(
                    producer.attr("value"), (int, float)
                ):
                    return self.builder.const(
                        float(producer.attr("value")), element
                    )
            memref = self._lookup(operand)
            return self.builder.load(memref, indices)

        for op in ops:
            row = TENSOR.get(op.name)
            kernel_op = None if row is None else (
                row.float_op if element.is_float else row.int_op)
            if kernel_op is None:
                raise PassError(
                    f"unsupported elementwise op {op.name} "
                    f"for element type {element}"
                )
            operands = [operand_scalar(value) for value in op.operands]
            if row.constant is not None:
                operands.append(self.builder.const(row.constant, element))
            scalar = self.builder.create(
                f"kernel.{kernel_op}", operands=operands,
                result_types=[operands[0].type],
            ).result
            scalars[id(op)] = scalar
            buffer = materialize.get(id(op))
            if buffer is not None:
                self.builder.store(scalar, buffer, indices)

        self._close_nest(handles, outer)

        # Splat/constant producers whose every consumer sits inside a
        # fusion group were inlined as scalars; suppress their
        # standalone buffer materialization.
        for op in ops:
            for operand in op.operands:
                producer = operand.producer
                if (
                    producer is not None
                    and producer.name in ("tensor.splat",
                                          "tensor.constant")
                    and all(
                        user.attr("fusion_group") is not None
                        for user in producer.results[0].uses
                    )
                ):
                    self._done.add(id(producer))

    # ------------------------------------------------------------------

    def _emit_matmul(self, op: Operation) -> None:
        lhs = self._lookup(op.operands[0])
        rhs = self._lookup(op.operands[1])
        lhs_type: TensorType = op.operands[0].type
        rhs_type: TensorType = op.operands[1].type
        m, k = lhs_type.shape
        n = rhs_type.shape[1]
        element = lhs_type.element
        out = self._alloc_for(op.results[0])

        self._emit_fill(out, (m, n), 0.0, element)

        if op.attr("loop_order") == "ikj":
            self._emit_matmul_ikj(op, lhs, rhs, out, m, n, k)
            return

        tile_sizes = op.attr("tile_sizes")
        tiled = (
            isinstance(tile_sizes, (list, tuple))
            and len(tile_sizes) == 3
            and m % tile_sizes[0] == 0
            and n % tile_sizes[1] == 0
            and k % tile_sizes[2] == 0
            and (tile_sizes[0] < m or tile_sizes[1] < n
                 or tile_sizes[2] < k)
        )
        outer = self.builder.block
        if tiled:
            tm, tn, tk = tile_sizes
            outer_handles = self._loop_nest((m // tm, n // tn, k // tk))
            it, jt, kt = [h.induction_var for h in outer_handles]
            inner_handles = self._loop_nest((tm, tn, tk))
            ii, ji, ki = [h.induction_var for h in inner_handles]
            i = self._affine(it, tm, ii)
            j = self._affine(jt, tn, ji)
            kk = self._affine(kt, tk, ki)
            handles = outer_handles + inner_handles
        else:
            handles = self._loop_nest((m, n, k))
            i, j, kk = [h.induction_var for h in handles]

        a = self.builder.load(lhs, [i, kk])
        b = self.builder.load(rhs, [kk, j])
        c = self.builder.load(out, [i, j])
        prod = self.builder.mulf(a, b)
        acc = self.builder.addf(c, prod)
        self.builder.store(acc, out, [i, j])
        self._close_nest(handles, outer)

    def _emit_matmul_ikj(self, op: Operation, lhs: Value, rhs: Value,
                         out: Value, m: int, n: int, k: int) -> None:
        """i-k-j order: A[i,k] registered, j innermost, no recurrence."""
        outer = self.builder.block
        loop_i = self.builder.for_loop(0, m)
        self.builder.set_insertion_point(loop_i.body)
        loop_k = self.builder.for_loop(0, k)
        self.builder.set_insertion_point(loop_k.body)
        a = self.builder.load(
            lhs, [loop_i.induction_var, loop_k.induction_var]
        )
        loop_j = self.builder.for_loop(0, n)
        self.builder.set_insertion_point(loop_j.body)
        b = self.builder.load(
            rhs, [loop_k.induction_var, loop_j.induction_var]
        )
        c = self.builder.load(
            out, [loop_i.induction_var, loop_j.induction_var]
        )
        acc = self.builder.addf(c, self.builder.mulf(a, b))
        self.builder.store(
            acc, out, [loop_i.induction_var, loop_j.induction_var]
        )
        self._close_nest([loop_i, loop_k, loop_j], outer)

    def _affine(self, tile_iv: Value, tile_size: int, inner_iv: Value
                ) -> Value:
        size = self.builder.index_const(tile_size)
        scaled = self.builder._binary("kernel.muli", tile_iv, size)
        return self.builder._binary("kernel.addi", scaled, inner_iv)

    def _emit_fill(
        self, buffer: Value, shape: Sequence[int], value: float,
        element: ScalarType,
    ) -> None:
        outer = self.builder.block
        handles = self._loop_nest(shape)
        indices = [handle.induction_var for handle in handles]
        const = self.builder.const(
            value if element.is_float else int(value), element
        )
        self.builder.store(const, buffer, indices)
        self._close_nest(handles, outer)

    def _emit_contract(self, op: Operation) -> None:
        # General contractions are normalized to matmul by the frontend;
        # anything reaching here uses the fallback dense interpretation.
        raise PassError(
            "tensor.contract must be normalized to matmul before lowering"
        )

    def _emit_reduce(self, op: Operation) -> None:
        source_type: TensorType = op.operands[0].type
        result_type: TensorType = op.results[0].type
        axes = sorted(op.attr("axes"))
        row = REDUCE[op.attr("kind")]
        element = source_type.element
        source = self._lookup(op.operands[0])
        out = self._alloc_for(op.results[0])

        self._emit_fill(out, result_type.shape, row.init, element)

        outer = self.builder.block
        handles = self._loop_nest(source_type.shape)
        indices = [handle.induction_var for handle in handles]
        kept = [
            indices[axis]
            for axis in range(source_type.rank)
            if axis not in axes
        ]
        if not kept:
            kept = [self.builder.index_const(0)]
        value = self.builder.load(source, indices)
        acc = self.builder.load(out, kept)
        combined = self.builder._binary(f"kernel.{row.combine}", acc, value)
        self.builder.store(combined, out, kept)
        self._close_nest(handles, outer)

        if row.mean:
            reduced = 1
            for axis in axes:
                reduced *= source_type.shape[axis]
            outer = self.builder.block
            handles = self._loop_nest(result_type.shape)
            idx = [handle.induction_var for handle in handles]
            value = self.builder.load(out, idx)
            scale = self.builder.const(1.0 / reduced, element)
            self.builder.store(
                self.builder.mulf(value, scale), out, idx
            )
            self._close_nest(handles, outer)

    def _emit_transpose(self, op: Operation) -> None:
        source_type: TensorType = op.operands[0].type
        result_type: TensorType = op.results[0].type
        perm = list(op.attr("permutation"))
        source = self._lookup(op.operands[0])
        out = self._alloc_for(op.results[0])

        outer = self.builder.block
        handles = self._loop_nest(result_type.shape)
        dst_indices = [handle.induction_var for handle in handles]
        src_indices: List[Optional[Value]] = [None] * source_type.rank
        for dst_axis, src_axis in enumerate(perm):
            src_indices[src_axis] = dst_indices[dst_axis]
        value = self.builder.load(source, src_indices)  # type: ignore
        self.builder.store(value, out, dst_indices)
        self._close_nest(handles, outer)

    def _emit_constant(self, op: Operation) -> None:
        result_type: TensorType = op.results[0].type
        fill = op.attr("value")
        if not isinstance(fill, (int, float)):
            raise PassError(
                "tensor.constant lowering supports scalar fill values; "
                f"got {type(fill).__name__}"
            )
        out = self._alloc_for(op.results[0])
        self._emit_fill(
            out, result_type.shape, float(fill), result_type.element
        )

    def _emit_splat(self, op: Operation) -> None:
        result_type: TensorType = op.results[0].type
        self._ensure_available(op.operands[0])
        scalar = self.env.get(op.operands[0], op.operands[0])
        out = self._alloc_for(op.results[0])
        outer = self.builder.block
        handles = self._loop_nest(result_type.shape)
        indices = [handle.induction_var for handle in handles]
        self.builder.store(scalar, out, indices)
        self._close_nest(handles, outer)

    def _emit_reshape(self, op: Operation) -> None:
        source = self._lookup(op.operands[0])
        result_type: TensorType = op.results[0].type
        view = self.builder.create(
            "kernel.view",
            operands=[source],
            result_types=[_as_memref(result_type)],
        )
        self.env[op.results[0]] = view.result
