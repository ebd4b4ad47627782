"""Experiment ben-hls — HLS memory-subsystem ablation (paper §III-B).

"We will use a fully automated and transparent memory management ...
with a combination of polyhedral-based transformations, multi-port
memories and dedicated micro-architectures to schedule the memory
accesses." Ablations:

* banking strategy (none / cyclic / block / auto) x unroll factor:
  initiation interval and total cycles of a multi-access streaming
  kernel — banking is what lets unrolling actually pay off;
* complete partitioning of small local buffers into registers;
* the recurrence wall: no amount of banking fixes a loop-carried
  accumulation (RecMII), motivating the dataflow-rewrite variants.
"""

from __future__ import annotations

from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.hls.bambu import HLSOptions, synthesize
from repro.core.hls.cdfg import build_cdfg, loop_carried_chain
from repro.core.hls.scheduling import ResourceBudget, schedule_loop
from repro.core.ir.passes import (
    CanonicalizePass,
    ElementwiseFusionPass,
    LoopDirectivesPass,
    LowerTensorPass,
    PassManager,
)
from repro.utils.tables import Table

STENCIL = """
kernel saxpy3(A: tensor<2048xf32>, B: tensor<2048xf32>,
              C: tensor<2048xf32>) -> tensor<2048xf32> {
  Y = A * 1.5 + B * 0.25 + C
  return Y
}
"""

GEMM = """
kernel gemm(A: tensor<16x16xf32>, B: tensor<16x16xf32>)
        -> tensor<16x16xf32> {
  C = A @ B
  return C
}
"""


def prepare(src, name, unroll):
    module = compile_kernel(src)
    manager = PassManager()
    manager.add(ElementwiseFusionPass())
    manager.add(LowerTensorPass())
    manager.add(LoopDirectivesPass(unroll_factor=unroll))
    manager.add(CanonicalizePass())
    manager.run(module)
    return module


def test_hls_banking_ablation(benchmark):
    table = Table(
        "ben-hls: banking strategy x unroll "
        "(saxpy3, 2048 elements, 4 buffers)",
        ["strategy", "unroll", "total cycles", "BRAM blocks",
         "banks"],
    )
    cycles = {}
    for strategy in ("none", "cyclic", "block", "auto"):
        for unroll in (1, 4, 16):
            module = prepare(STENCIL, "saxpy3", unroll)
            design = synthesize(
                module, "saxpy3",
                HLSOptions(
                    memory_strategy=strategy,
                    budget=ResourceBudget(fadd=64, fmul=64),
                ),
            )
            cycles[(strategy, unroll)] = design.latency_cycles
            table.add_row(
                strategy, unroll, design.latency_cycles,
                design.memory_plan.total_bram_blocks,
                sum(p.factor
                    for p in design.memory_plan.buffers.values()),
            )
    table.show()

    # without banking, unrolling is wasted (port-starved): the only
    # gain is the dual port, never more than ~2x
    assert cycles[("none", 16)] > 0.45 * cycles[("none", 1)]
    # with banking, unroll 16 gives close-to-linear gains
    assert cycles[("auto", 16)] < 0.15 * cycles[("auto", 1)]
    # banked-unrolled beats unbanked-unrolled by a wide margin
    assert cycles[("auto", 16)] < 0.3 * cycles[("none", 16)]

    module = prepare(STENCIL, "saxpy3", 4)
    benchmark(lambda: synthesize(module, "saxpy3", HLSOptions()))


def test_hls_complete_partitioning(benchmark):
    """Small local scratch becomes registers: zero BRAM, full ports."""
    src = """
    kernel window(A: tensor<1024xf32>) -> tensor<1024xf32> {
      W = reshape(A, shape=[32, 32])
      S = sum(W, axes=[1])
      T = reshape(S, shape=[32])
      B = exp(T)
      R = reshape(B, shape=[32])
      Y = A * 0.5
      return Y
    }
    """
    module = prepare(src, "window", 4)
    design = synthesize(module, "window", HLSOptions())
    register_buffers = [
        plan for plan in design.memory_plan.buffers.values()
        if plan.scheme == "complete"
    ]
    print(f"\nben-hls: {len(register_buffers)} buffers promoted to "
          f"registers, {design.memory_plan.total_register_bits} bits")
    assert register_buffers
    assert design.memory_plan.total_register_bits > 0

    benchmark(lambda: build_cdfg(module.find_function("window")))


def test_hls_dataflow_chaining(benchmark):
    """§III-B: 'a chain of tensor operations directly on the FPGA
    logic before writing back to main memory' — on-chip FIFOs vs DDR
    round-trips between stages."""
    from repro.core.hls.dataflow import (
        chain_designs,
        staged_total_time_s,
    )
    from repro.platform.interconnect import OpenCAPILink

    stage_sources = {
        "normalize": """
        kernel normalize(X: tensor<4096xf32>) -> tensor<4096xf32> {
          Y = X * 0.001 - 1.0
          return Y
        }
        """,
        "transform": """
        kernel transform(X: tensor<4096xf32>) -> tensor<4096xf32> {
          Y = exp(X) * 0.5
          return Y
        }
        """,
        "squash": """
        kernel squash(X: tensor<4096xf32>) -> tensor<4096xf32> {
          Y = tanh(X) + 1.0
          return Y
        }
        """,
    }
    designs = [
        synthesize(prepare(src, name, 4), name, HLSOptions())
        for name, src in stage_sources.items()
    ]
    chain = chain_designs(designs)
    link = OpenCAPILink()

    table = Table(
        "ben-hls: dataflow chain vs per-stage DDR round-trips "
        "(3 stages, 16 KiB batches)",
        ["batches", "chained ms", "staged ms", "speedup",
         "DDR bytes/batch chained", "staged"],
    )
    staged_bytes = sum(d.data_bytes for d in designs)
    for batches in (1, 16, 128):
        chained = chain.total_time_s(batches)
        staged = staged_total_time_s(designs, link, batches)
        table.add_row(
            batches, chained * 1e3, staged * 1e3,
            staged / chained,
            chain.external_bytes_per_batch(), staged_bytes,
        )
    table.show()

    assert chain.external_bytes_per_batch() < 0.5 * staged_bytes
    assert chain.total_time_s(128) < 0.6 * staged_total_time_s(
        designs, link, 128
    )

    benchmark(lambda: chain_designs(designs))


def test_hls_flexible_memory_manager(benchmark):
    """§II 'flexible memory managers': intensity-aware placement
    across BRAM / card DDR / host DDR beats host-only residency."""
    from repro.platform.interconnect import OpenCAPILink
    from repro.platform.memory import MemoryModel, MemoryTechnology
    from repro.runtime.memory_manager import (
        BufferRequest,
        MemoryManager,
    )
    from repro.utils.units import GB, KB, MB

    memories = [
        MemoryModel("bram", MemoryTechnology.BRAM,
                    capacity_bytes=4 * MB, channels=8),
        MemoryModel("card-ddr", MemoryTechnology.DDR4,
                    capacity_bytes=8 * GB, channels=2),
        MemoryModel("host-ddr", MemoryTechnology.HOST_DDR,
                    capacity_bytes=256 * GB, channels=8),
    ]
    manager = MemoryManager(memories, host_link=OpenCAPILink())
    requests = [
        BufferRequest("weights", size_bytes=2 * MB,
                      accesses_per_invocation=800, resident=True),
        BufferRequest("lut-tables", size_bytes=256 * KB,
                      accesses_per_invocation=1200, resident=True),
        BufferRequest("activations", size_bytes=1 * MB,
                      accesses_per_invocation=64),
        BufferRequest("raw-stream", size_bytes=32 * MB,
                      accesses_per_invocation=2),
    ]
    smart = manager.place(requests)
    host_only = manager.place_all_in(
        requests, MemoryTechnology.HOST_DDR
    )

    table = Table(
        "ben-hls: flexible memory manager vs host-only placement",
        ["buffer", "smart placement", "host-only"],
    )
    for request in requests:
        table.add_row(
            request.name,
            smart.memory_of(request.name),
            host_only.memory_of(request.name),
        )
    table.show()
    print(f"smart: {smart.total_seconds * 1e3:.3f} ms / "
          f"{smart.energy_j * 1e3:.3f} mJ;  host-only: "
          f"{host_only.total_seconds * 1e3:.3f} ms / "
          f"{host_only.energy_j * 1e3:.3f} mJ")

    assert smart.memory_of("lut-tables") == "bram"
    assert smart.total_seconds < host_only.total_seconds
    assert smart.energy_j < host_only.energy_j

    benchmark(lambda: manager.place(requests))


def test_hls_recurrence_wall(benchmark):
    """Banking cannot beat RecMII: the accumulation chain pins II."""
    module = prepare(GEMM, "gemm", 4)
    cdfg = build_cdfg(module.find_function("gemm"))
    accumulating = [
        loop for loop in cdfg.innermost_loops()
        if loop_carried_chain(loop)
    ]
    assert accumulating, "gemm should have an accumulation loop"
    loop = accumulating[0]

    table = Table(
        "ben-hls: II of the gemm accumulation loop vs memory ports",
        ["ports per buffer", "II"],
    )
    iis = {}
    for ports in (2, 8, 32):
        schedule = schedule_loop(
            loop,
            budget=ResourceBudget(fadd=32, fmul=32),
            memory_ports={
                id(node.buffer()): ports
                for node in loop.body if node.buffer() is not None
            },
        )
        iis[ports] = schedule.ii
        table.add_row(ports, schedule.ii)
    table.show()

    # more ports do not help: the recurrence is the wall
    assert iis[2] == iis[32]
    assert iis[32] >= 6  # load + addf + store chain latency

    # ...but the accumulation-interleave rewrite breaks it
    from repro.core.ir.passes import AccumulationInterleavePass

    interleave_table = Table(
        "ben-hls: accumulation interleaving vs the recurrence "
        "(gemm k-loop)",
        ["partial sums", "II", "loop cycles"],
    )
    results = {}
    for factor in (1, 2, 4, 8):
        module_i = prepare(GEMM, "gemm", 1)
        if factor > 1:
            AccumulationInterleavePass(factor=factor).run(module_i)
        cdfg_i = build_cdfg(module_i.find_function("gemm"))
        loop_i = next(
            l for l in cdfg_i.innermost_loops()
            if loop_carried_chain(l)
        )
        schedule = schedule_loop(loop_i)
        cycles_i = schedule.cycles_for_trips(loop_i.trip_count)
        results[factor] = (schedule.ii, cycles_i)
        interleave_table.add_row(factor, schedule.ii, cycles_i)
    interleave_table.show()
    assert results[8][0] < results[1][0]
    assert results[8][1] < results[1][1]

    # ...and the loop-interchange variant (ikj) removes it entirely
    from repro.core.hls.scheduling import nest_cycles
    from repro.core.ir.passes import MatmulLoopOrderPass

    order_table = Table(
        "ben-hls: matmul loop order (polyhedral interchange)",
        ["order", "recurrence", "worst II", "total cycles"],
    )
    totals = {}
    for order in ("ijk", "ikj"):
        module_o = compile_kernel(GEMM)
        pm = PassManager()
        pm.add(MatmulLoopOrderPass(order))
        pm.add(LowerTensorPass())
        pm.add(LoopDirectivesPass())
        pm.run(module_o)
        cdfg_o = build_cdfg(module_o.find_function("gemm"))
        schedules = {
            id(l): schedule_loop(l)
            for l in cdfg_o.innermost_loops()
        }
        has_recurrence = any(
            loop_carried_chain(l) for l in cdfg_o.innermost_loops()
        )
        total = nest_cycles(cdfg_o.root, schedules)
        totals[order] = total
        order_table.add_row(
            order, has_recurrence,
            max(s.ii for s in schedules.values()), total,
        )
    order_table.show()
    assert totals["ikj"] < 0.5 * totals["ijk"]

    benchmark(lambda: schedule_loop(loop))
