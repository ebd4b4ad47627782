"""Security instrumentation pass.

Implements the compile-time half of EVEREST's data-centric protection
(§III-A): for every function whose annotations mark arguments as
*sensitive*, the pass

* wraps sensitive arguments in ``secure.taint`` ops so dynamic
  information flow tracking (TaintHLS [18]) can follow them;
* inserts a ``secure.check`` before every ``func.return`` so values
  derived from tainted data cannot leave the kernel undeclassified;
* tags the function with ``dift = True``, which the HLS engine turns
  into taint-register hardware. (A function-level ``cipher``
  attribute, written in textual IR, adds a crypto core on the
  accelerator's memory path; in-transit encryption is the runtime's
  job.)

The sensitive-argument annotation arrives from the DSL layer as an
``everest.sensitive_args`` attribute (list of argument indices).
"""

from __future__ import annotations

from typing import List

from repro.core.ir.module import Function, Module
from repro.core.ir.ops import Operation
from repro.core.ir.passes.pass_manager import Pass
from repro.errors import PassError

class SecurityInstrumentationPass(Pass):
    """Insert taint tracking and return checks for sensitive data."""

    name = "security-instrumentation"

    def run(self, module: Module) -> bool:
        changed = False
        for function in module.functions():
            sensitive: List[int] = function.op.attr(
                "everest.sensitive_args", []
            )
            if not sensitive:
                continue
            if function.op.attr("dift"):
                continue  # already instrumented
            self._instrument(function, sensitive)
            function.op.set_attr("dift", True)
            changed = True
        return changed

    def _instrument(self, function: Function, sensitive: List[int]) -> None:
        if function.is_declaration:
            raise PassError(
                f"cannot instrument declaration {function.name!r}"
            )
        block = function.entry_block
        arguments = function.arguments
        for index in sensitive:
            if not 0 <= index < len(arguments):
                raise PassError(
                    f"{function.name}: sensitive arg index {index} out of "
                    f"range"
                )
            argument = arguments[index]
            taint = Operation(
                "secure.taint",
                operands=[argument],
                result_types=[argument.type],
                attributes={"label": f"arg{index}"},
            )
            # Insert at block start, then reroute all *other* users of
            # the argument through the tainted value.
            first = block.operations[0] if block.operations else None
            if first is None:
                block.append(taint)
            else:
                block.insert_before(first, taint)
            for user in list(argument.uses):
                if user is taint:
                    continue
                user.replace_operand(argument, taint.result)

        for op in list(function.walk()):
            if op.name != "func.return":
                continue
            if not op.operands:
                continue
            check = Operation(
                "secure.check",
                operands=list(op.operands),
                attributes={"policy": "no-tainted-egress"},
            )
            op.parent.insert_before(op, check)
