"""Every schedule pricing synthesizes is legal for its own design.

Designs of one loop share their one-copy start cycles when their
binding limits clamp alike (``schedule_loop``), so a schedule computed
for one design's budget and ports is read by another's. Over every
design the oracle cases synthesize, priced, explored or built by the
annotating recipe, each start cycle keeps the dependences, and no
cycle issues more on a unit class or a buffer than that design's own
budget and memory plan allow (a slice of ROADMAP 4(c)).
"""

import pytest

from tests.dse.oracle import CASES, EXPLORED


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_synthesized_schedule_is_legal(priced, case):
    checked, violations = priced(case).legality
    assert violations == []
    if case in EXPLORED:
        assert checked > priced(case).distinct["synthesize"]
