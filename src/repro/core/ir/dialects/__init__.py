"""Dialect registry for the unified IR.

Each dialect registers :class:`OpDef` entries describing the structural
constraints of its operations (operand/result/region counts, traits and
an optional custom verifier). The verifier consults this registry; the
builder uses it to infer result counts.

Importing this package registers the builtin/func dialects and the five
EVEREST dialects: ``workflow``, ``tensor``, ``kernel``, ``hw`` and
``secure``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional

from repro.core.ir.ops import Operation
from repro.errors import IRError

# Traits understood by the verifier and passes.
TRAIT_TERMINATOR = "terminator"
TRAIT_PURE = "pure"  # no side effects: eligible for CSE/DCE
TRAIT_COMMUTATIVE = "commutative"
TRAIT_ISOLATED = "isolated"  # region may not reference outer values


@dataclass(frozen=True)
class OpDef:
    """Structural definition of one operation kind."""

    name: str
    min_operands: int = 0
    max_operands: Optional[int] = None  # None = variadic
    num_results: Optional[int] = None  # None = any
    num_regions: int = 0
    traits: FrozenSet[str] = field(default_factory=frozenset)
    verify: Optional[Callable[[Operation], None]] = None

    def has_trait(self, trait: str) -> bool:
        """True if the definition carries the trait."""
        return trait in self.traits

    def check(self, op: Operation) -> None:
        """Verify structural constraints; raises :class:`IRError`."""
        count = len(op.operands)
        if count < self.min_operands:
            raise IRError(
                f"{op.name}: expected at least {self.min_operands} "
                f"operands, got {count}"
            )
        if self.max_operands is not None and count > self.max_operands:
            raise IRError(
                f"{op.name}: expected at most {self.max_operands} "
                f"operands, got {count}"
            )
        if (
            self.num_results is not None
            and len(op.results) != self.num_results
        ):
            raise IRError(
                f"{op.name}: expected {self.num_results} results, "
                f"got {len(op.results)}"
            )
        if len(op.regions) != self.num_regions:
            raise IRError(
                f"{op.name}: expected {self.num_regions} regions, "
                f"got {len(op.regions)}"
            )
        if self.verify is not None:
            self.verify(op)


def row_opdef(row, verify: Optional[Callable[[Operation], None]] = None
              ) -> OpDef:
    """Definition of one op-table row (:mod:`.elementwise`): fixed
    arity, one result, pure, commutative when the row says so."""
    traits = {TRAIT_PURE, TRAIT_COMMUTATIVE} if row.commutative \
        else {TRAIT_PURE}
    return OpDef(
        name=row.name, min_operands=row.arity, max_operands=row.arity,
        num_results=1, traits=frozenset(traits), verify=verify,
    )


class Dialect:
    """A named group of operation definitions."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self.ops: Dict[str, OpDef] = {}

    def register(self, opdef: OpDef) -> OpDef:
        """Add an op definition; the name must not be qualified."""
        if "." in opdef.name:
            raise IRError(
                f"op names are registered unqualified, got {opdef.name!r}"
            )
        if opdef.name in self.ops:
            raise IRError(
                f"dialect {self.name!r}: duplicate op {opdef.name!r}"
            )
        self.ops[opdef.name] = opdef
        return opdef

    def lookup(self, opname: str) -> OpDef:
        """Find a definition by unqualified name."""
        if opname not in self.ops:
            raise IRError(
                f"dialect {self.name!r} has no operation {opname!r}"
            )
        return self.ops[opname]


_REGISTRY: Dict[str, Dialect] = {}


def register_dialect(dialect: Dialect) -> Dialect:
    """Install a dialect in the global registry."""
    if dialect.name in _REGISTRY:
        raise IRError(f"dialect {dialect.name!r} already registered")
    _REGISTRY[dialect.name] = dialect
    return dialect


def get_dialect(name: str) -> Dialect:
    """Look up a dialect by name."""
    if name not in _REGISTRY:
        raise IRError(f"unknown dialect {name!r}")
    return _REGISTRY[name]


def lookup_op(qualified_name: str) -> OpDef:
    """Find the definition of a dialect-qualified op name."""
    if "." not in qualified_name:
        raise IRError(f"op name must be qualified, got {qualified_name!r}")
    dialect_name, opname = qualified_name.split(".", 1)
    return get_dialect(dialect_name).lookup(opname)


def registered_dialects() -> Dict[str, Dialect]:
    """Copy of the registry mapping."""
    return dict(_REGISTRY)


def op_is_pure(op: Operation) -> bool:
    """True when the op's definition carries the pure trait."""
    try:
        return lookup_op(op.name).has_trait(TRAIT_PURE)
    except IRError:
        return False


def op_is_terminator(op: Operation) -> bool:
    """True when the op's definition carries the terminator trait."""
    try:
        return lookup_op(op.name).has_trait(TRAIT_TERMINATOR)
    except IRError:
        return False


# Import dialect modules for their registration side effects.
from repro.core.ir.dialects import builtin as _builtin  # noqa: E402,F401
from repro.core.ir.dialects import workflow as _workflow  # noqa: E402,F401
from repro.core.ir.dialects import tensor as _tensor  # noqa: E402,F401
from repro.core.ir.dialects import kernel as _kernel  # noqa: E402,F401
from repro.core.ir.dialects import hw as _hw  # noqa: E402,F401
from repro.core.ir.dialects import secure as _secure  # noqa: E402,F401
