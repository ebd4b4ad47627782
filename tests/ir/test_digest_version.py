"""Version-counter digest memoization and its invalidation contract.

Every structural mutation of an operation tree — builder inserts, pass
rewrites, attribute edits, operand rewiring, erasure — must bump the
module's monotonic version counter so a memoized digest can never be
served for changed IR (the PR 5 id-recycling bug class, one layer up).
Conversely, an *unmutated* module must be printed and hashed exactly
once per process, no matter how many lookups ask for its digest.
"""

from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.ir.builder import Builder
from repro.core.ir.digest import module_digest
from repro.core.ir.module import Module
from repro.core.ir.parser import parse_module
from repro.core.ir.passes import LowerTensorPass, PassManager
from repro.core.ir.printer import print_module
from repro.core.ir.types import F32, FunctionType, TensorType
from tests.conftest import count_prints

GEMM_SRC = """
kernel gemm(A: tensor<8x8xf32>, B: tensor<8x8xf32>)
        -> tensor<8x8xf32> {
  C = A @ B
  return C
}
"""


def build_module():
    return compile_kernel(GEMM_SRC)


def unmemoized_digest(module):
    """Memo-free oracle: the digest of a fresh object re-parsed from
    the module's printed form (it has never been digested)."""
    return module_digest(parse_module(print_module(module)))


class TestMemoization:
    def test_repeated_lookups_print_once(self, monkeypatch):
        module = build_module()
        printed = count_prints(monkeypatch)
        first = module_digest(module)
        for _ in range(50):
            assert module_digest(module) == first
        assert printed.call_count == 1

    def test_memo_matches_unmemoized_value(self):
        module = build_module()
        memoized = module_digest(module)
        assert module_digest(module) == memoized  # served by the memo
        assert unmemoized_digest(module) == memoized

    def test_clone_digests_independently(self, monkeypatch):
        module = build_module()
        original = module_digest(module)
        clone = module.clone()
        assert module_digest(clone) == original
        clone.find_function("gemm").op.set_attr("target", "fpga")
        assert module_digest(clone) != original
        # the original's memo is untouched by clone mutations
        printed = count_prints(monkeypatch)
        assert module_digest(module) == original
        assert printed.call_count == 0


class TestInvalidation:
    """Every mutation pathway must yield a fresh digest."""

    def test_set_attr(self):
        module = build_module()
        before = module_digest(module)
        module.find_function("gemm").op.set_attr("target", "fpga")
        assert module_digest(module) != before

    def test_direct_attribute_write_and_delete(self):
        module = build_module()
        op = module.find_function("gemm").op
        before = module_digest(module)
        op.attributes["pipeline_ii"] = 2
        mid = module_digest(module)
        assert mid != before
        del op.attributes["pipeline_ii"]
        after = module_digest(module)
        assert after != mid
        assert after == before  # same structure, same content digest

    def test_builder_insert(self):
        module = build_module()
        function = module.find_function("gemm")
        before = module_digest(module)
        builder = Builder(function.entry_block)
        builder.const(0.0)
        assert module_digest(module) != before

    def test_erase(self):
        module = build_module()
        function = module.find_function("gemm")
        before = module_digest(module)
        builder = Builder(function.entry_block)
        const = builder.const(0.0)
        mid = module_digest(module)
        assert mid != before
        const.producer.erase()
        assert module_digest(module) == before

    def test_replace_operand_and_rauw(self):
        module = build_module()
        function = module.find_function("gemm")
        builder = Builder(function.entry_block)
        a = builder.const(1.0)
        b = builder.const(2.0)
        add = builder.create("kernel.addf", [a, a], [F32])
        before = module_digest(module)
        add.replace_operand(a, b)
        mid = module_digest(module)
        assert mid != before
        b.replace_all_uses_with(a)
        assert module_digest(module) != mid

    def test_add_and_remove_function(self):
        module = build_module()
        before = module_digest(module)
        module.add_function(
            "helper",
            FunctionType((TensorType((4,), F32),), ()),
        )
        mid = module_digest(module)
        assert mid != before
        module.remove_function("helper")
        assert module_digest(module) == before

    def test_direct_operations_list_mutation(self):
        module = build_module()
        function = module.find_function("gemm")
        block = function.entry_block
        before = module_digest(module)
        op = block.operations.pop()
        assert module_digest(module) != before
        block.operations.append(op)
        assert module_digest(module) == before

    def test_pass_mutation_invalidates(self):
        """Satellite guard: a pass rewriting a module in place must
        bump the version so mutate-after-digest yields a fresh digest."""
        module = build_module()
        stale = module_digest(module)
        version = module.version
        manager = PassManager(verify_each=False)
        manager.add(LowerTensorPass())
        manager.run(module)
        assert module.version > version
        fresh = module_digest(module)
        assert fresh != stale
        # and the fresh digest is itself correct, not a stale memo
        assert unmemoized_digest(module) == fresh

    def test_version_monotonic(self):
        module = Module("m")
        versions = [module.version]
        module.add_function("f", FunctionType((), ()))
        versions.append(module.version)
        module.find_function("f").op.set_attr("target", "cpu")
        versions.append(module.version)
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)
