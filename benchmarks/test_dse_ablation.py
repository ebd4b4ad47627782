"""Experiment ben-dse — exploration-strategy ablation (paper §III-B).

The middle-end "explores code variants" over a large knob space; the
choice of search strategy trades evaluations for front quality. The
hypervolume of the discovered Pareto front (against a fixed reference)
is compared across exhaustive, random and evolutionary search at equal
budgets.
"""

from __future__ import annotations

import pytest

from repro.core.dse.explorer import Explorer
from repro.core.dse.pareto import hypervolume_2d, knee_point
from repro.core.dse.space import DesignSpace
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.utils.tables import Table

KERNEL = """
kernel score(X: tensor<1024xf32>, G: tensor<1024xf32>)
        -> tensor<1024xf32> {
  Y = sigmoid(exp(X) * G + X)
  return Y
}
"""

SPACE = DesignSpace(
    targets=("cpu", "fpga"),
    threads=(1, 2, 4, 8, 16),
    unrolls=(1, 2, 4, 8, 16),
    memory_strategies=("auto", "none"),
    clocks_hz=(150e6, 250e6, 350e6),
)


@pytest.fixture(scope="module")
def module():
    return compile_kernel(KERNEL)


def test_dse_strategy_ablation(module, benchmark):
    explorer = Explorer(module, "score", SPACE)

    exhaustive = explorer.exhaustive()
    reference = (
        2 * max(v.cost.latency_s for v in exhaustive.feasible),
        2 * max(v.cost.energy_j for v in exhaustive.feasible),
    )
    full_volume = hypervolume_2d(exhaustive.evaluated, reference)

    budget = max(8, exhaustive.evaluations // 4)
    random_result = explorer.random(budget=budget, seed="abl")
    evolutionary_result = explorer.evolutionary(budget=budget, seed="abl")

    table = Table(
        f"ben-dse: search strategies (space size "
        f"{SPACE.size()}, budget {budget})",
        ["strategy", "evaluations", "front size",
         "hypervolume % of exhaustive"],
    )
    for name, result in (
        ("exhaustive", exhaustive),
        ("random", random_result),
        ("evolutionary", evolutionary_result),
    ):
        volume = hypervolume_2d(result.evaluated, reference)
        table.add_row(
            name, result.evaluations, len(result.front),
            100.0 * volume / full_volume if full_volume else 0.0,
        )
    table.show()

    random_volume = hypervolume_2d(random_result.evaluated, reference)
    evolutionary_volume = hypervolume_2d(
        evolutionary_result.evaluated, reference
    )
    # budgeted searches recover most of the front at ~25% of the cost
    assert random_volume > 0.5 * full_volume
    assert evolutionary_volume > 0.5 * full_volume
    # exhaustive is the upper bound
    assert full_volume >= random_volume - 1e-18
    assert full_volume >= evolutionary_volume - 1e-18

    knee = knee_point(exhaustive.evaluated)
    print(f"knee variant: {knee.knobs.describe()} "
          f"({knee.cost.latency_s * 1e6:.2f} us, "
          f"{knee.cost.energy_j * 1e6:.2f} uJ)")

    small = DesignSpace.small()
    quick = Explorer(module, "score", small)
    benchmark(lambda: quick.exhaustive())
