"""Core SSA structures: values, operations, blocks, regions.

The design mirrors MLIR's generic operation model [22]: every operation
has a dialect-qualified name, SSA operands and results, an attribute
dictionary and nested regions. Dialects constrain and verify specific
operations (see :mod:`repro.core.ir.dialects`); the structures here are
dialect-agnostic.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.core.ir.types import Type
from repro.errors import IRError

_value_counter = itertools.count()


class _AttrDict(dict):
    """Attribute dictionary that version-bumps its owning operation.

    Every mutation of an operation's attributes — including direct
    ``op.attributes[...] = v`` / ``del op.attributes[...]`` writes that
    bypass :meth:`Operation.set_attr` — must invalidate any memoized
    digest of the enclosing module, so the structural hash can never be
    served for changed IR.
    """

    __slots__ = ("owner",)

    def __init__(self, owner: "Operation", data: Optional[Dict[str, Any]] = None):
        super().__init__(data or {})
        self.owner = owner

    def __setitem__(self, key: str, value: Any) -> None:
        self.owner.bump_version()
        super().__setitem__(key, value)

    def __delitem__(self, key: str) -> None:
        self.owner.bump_version()
        super().__delitem__(key)

    def update(self, *args: Any, **kwargs: Any) -> None:
        self.owner.bump_version()
        super().update(*args, **kwargs)

    def pop(self, *args: Any) -> Any:
        self.owner.bump_version()
        return super().pop(*args)

    def popitem(self) -> Any:
        self.owner.bump_version()
        return super().popitem()

    def setdefault(self, key: str, default: Any = None) -> Any:
        if key not in self:
            self.owner.bump_version()
        return super().setdefault(key, default)

    def clear(self) -> None:
        self.owner.bump_version()
        super().clear()


class _OperationList(list):
    """Operation list that version-bumps its owning block's root.

    Passes mutate ``block.operations`` directly (remove/insert/slice);
    routing every mutator through the version bump keeps memoized
    digests sound without requiring all rewrites to go through helper
    methods.
    """

    __slots__ = ("block",)

    def __init__(self, block: "Block"):
        super().__init__()
        self.block = block

    def _bump(self) -> None:
        self.block.bump_version()

    def append(self, op: "Operation") -> None:
        self._bump()
        super().append(op)

    def extend(self, ops: Any) -> None:
        self._bump()
        super().extend(ops)

    def insert(self, index: int, op: "Operation") -> None:
        self._bump()
        super().insert(index, op)

    def remove(self, op: "Operation") -> None:
        self._bump()
        super().remove(op)

    def pop(self, index: int = -1) -> "Operation":
        self._bump()
        return super().pop(index)

    def clear(self) -> None:
        self._bump()
        super().clear()

    def sort(self, **kwargs: Any) -> None:
        self._bump()
        super().sort(**kwargs)

    def reverse(self) -> None:
        self._bump()
        super().reverse()

    def __setitem__(self, index: Any, value: Any) -> None:
        self._bump()
        super().__setitem__(index, value)

    def __delitem__(self, index: Any) -> None:
        self._bump()
        super().__delitem__(index)

    def __iadd__(self, other: Any) -> "_OperationList":
        self._bump()
        super().extend(other)
        return self


class Value:
    """An SSA value: produced by an operation result or a block argument."""

    def __init__(self, type: Type):
        self.type = type
        self.name = f"v{next(_value_counter)}"
        self.producer: Optional["Operation"] = None
        self.block: Optional["Block"] = None  # set for block arguments
        self.uses: List["Operation"] = []

    @property
    def is_block_argument(self) -> bool:
        """True when the value is a block argument, not an op result."""
        return self.block is not None

    def replace_all_uses_with(self, other: "Value") -> None:
        """Rewrite every user of this value to use ``other``."""
        if other is self:
            return
        for user in list(self.uses):
            user.operands = [
                other if operand is self else operand
                for operand in user.operands
            ]
            user.bump_version()
            if user not in other.uses:
                other.uses.append(user)
        self.uses.clear()

    def __repr__(self) -> str:
        return f"%{self.name}: {self.type}"


class Operation:
    """A generic operation with operands, results, attributes, regions."""

    def __init__(
        self,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, Any]] = None,
        num_regions: int = 0,
    ):
        if "." not in name:
            raise IRError(
                f"operation name must be dialect-qualified, got {name!r}"
            )
        self.name = name
        self.parent: Optional["Block"] = None
        self._version: int = 0
        self.operands: List[Value] = list(operands)
        self.attributes: Dict[str, Any] = _AttrDict(self, attributes or {})
        self.results: List[Value] = []
        for result_type in result_types:
            value = Value(result_type)
            value.producer = self
            self.results.append(value)
        self.regions: List[Region] = [Region(self) for _ in range(num_regions)]
        for operand in self.operands:
            if self not in operand.uses:
                operand.uses.append(self)

    def root(self) -> "Operation":
        """The outermost operation enclosing this op (itself if detached)."""
        op = self
        while op.parent is not None:
            op = op.parent.region.owner
        return op

    def bump_version(self) -> None:
        """Record a structural mutation on the enclosing operation tree.

        The counter lives on the root operation, so one walk up the
        parent chain invalidates every memoized digest of the module no
        matter how deep the mutation happened.
        """
        root = self.root()
        root._version += 1

    @property
    def version(self) -> int:
        """Monotonic mutation counter of the enclosing operation tree."""
        return self.root()._version

    @property
    def dialect(self) -> str:
        """Dialect prefix of the operation name."""
        return self.name.split(".", 1)[0]

    @property
    def opname(self) -> str:
        """Operation name without the dialect prefix."""
        return self.name.split(".", 1)[1]

    @property
    def result(self) -> Value:
        """The single result; raises if the op has zero or many."""
        if len(self.results) != 1:
            raise IRError(
                f"{self.name} has {len(self.results)} results, not 1"
            )
        return self.results[0]

    def attr(self, key: str, default: Any = None) -> Any:
        """Read an attribute with a default."""
        return self.attributes.get(key, default)

    def set_attr(self, key: str, value: Any) -> None:
        """Set an attribute."""
        self.attributes[key] = value

    def replace_operand(self, old: Value, new: Value) -> None:
        """Substitute one operand value for another."""
        if old not in self.operands:
            raise IRError(f"{self.name}: {old!r} is not an operand")
        self.operands = [
            new if operand is old else operand for operand in self.operands
        ]
        self.bump_version()
        if self in old.uses:
            old.uses.remove(self)
        if self not in new.uses:
            new.uses.append(self)

    def erase(self) -> None:
        """Remove the op from its block; results must be unused."""
        for result in self.results:
            if result.uses:
                raise IRError(
                    f"cannot erase {self.name}: result %{result.name} "
                    f"still has {len(result.uses)} uses"
                )
        for operand in self.operands:
            if self in operand.uses:
                operand.uses.remove(self)
        if self.parent is not None:
            self.parent.operations.remove(self)
            self.parent = None

    def walk(self) -> Iterator["Operation"]:
        """Yield this op and every op nested in its regions, pre-order."""
        yield self
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.operations):
                    yield from op.walk()

    def clone(self, value_map: Optional[Dict[Value, Value]] = None
              ) -> "Operation":
        """Deep-copy the op (and regions), remapping operands.

        ``value_map`` maps original values to replacement values; cloned
        results and block arguments are added to it so nested uses
        resolve correctly.
        """
        value_map = value_map if value_map is not None else {}
        new_operands = [value_map.get(operand, operand)
                        for operand in self.operands]
        clone = Operation(
            self.name,
            operands=new_operands,
            result_types=[result.type for result in self.results],
            attributes=dict(self.attributes),
            num_regions=len(self.regions),
        )
        for old, new in zip(self.results, clone.results):
            value_map[old] = new
        for old_region, new_region in zip(self.regions, clone.regions):
            for old_block in old_region.blocks:
                new_block = new_region.add_block(
                    [arg.type for arg in old_block.arguments]
                )
                for old_arg, new_arg in zip(
                    old_block.arguments, new_block.arguments
                ):
                    value_map[old_arg] = new_arg
                for op in old_block.operations:
                    new_block.append(op.clone(value_map))
        return clone

    def __repr__(self) -> str:
        return f"<op {self.name} ({len(self.operands)}->{len(self.results)})>"


class Block:
    """A straight-line sequence of operations with typed arguments."""

    def __init__(self, region: "Region", arg_types: Sequence[Type] = ()):
        self.region = region
        self.arguments: List[Value] = []
        for arg_type in arg_types:
            value = Value(arg_type)
            value.block = self
            self.arguments.append(value)
        self.operations: List[Operation] = _OperationList(self)

    def bump_version(self) -> None:
        """Propagate a mutation in this block to the root op's counter."""
        self.region.owner.bump_version()

    def append(self, op: Operation) -> Operation:
        """Add an operation at the end of the block."""
        op.parent = self
        self.operations.append(op)
        return op

    def insert_before(self, anchor: Operation, op: Operation) -> Operation:
        """Insert ``op`` immediately before ``anchor``."""
        index = self.operations.index(anchor)
        op.parent = self
        self.operations.insert(index, op)
        return op

    @property
    def terminator(self) -> Optional[Operation]:
        """The last operation, if any."""
        return self.operations[-1] if self.operations else None

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)


class Region:
    """A list of blocks owned by an operation."""

    def __init__(self, owner: Operation):
        self.owner = owner
        self.blocks: List[Block] = []

    def add_block(self, arg_types: Sequence[Type] = ()) -> Block:
        """Append a new block with the given argument types."""
        block = Block(self, arg_types)
        self.blocks.append(block)
        self.owner.bump_version()
        return block

    @property
    def entry(self) -> Block:
        """The first block; created empty if the region has none."""
        if not self.blocks:
            return self.add_block()
        return self.blocks[0]

    @property
    def empty(self) -> bool:
        """True when the region has no blocks."""
        return not self.blocks

    def walk(self) -> Iterator[Operation]:
        """Yield every operation in the region, pre-order."""
        for block in self.blocks:
            for op in list(block.operations):
                yield from op.walk()
