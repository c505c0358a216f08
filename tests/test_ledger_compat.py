"""The benchmark's layer ledger still sees every KFC assembly round.

``perfbench/ledger.py`` wraps ``repro.core.kfc.assemble_composite_items``
and ``KFCBuilder.place_centroids`` where their callers look them up, and
reads ``query.has_budget`` from the kernel's third positional argument.
A build that stopped calling the kernel through that module global, or
changed its argument order, would still build correct packages while
the traced ledger went blank.  The ledger is imported read-only from its
file, as ``test_benchpair.py`` imports the claim tool.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import repro.core.kfc as kfc
from repro.core.query import GroupQuery

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perfbench_ledger", ROOT / "perfbench" / "ledger.py")
ledger_module = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = ledger_module  # its dataclasses look it up
_spec.loader.exec_module(ledger_module)


@pytest.mark.parametrize("budget", [math.inf, 1e6])
def test_a_build_records_one_kernel_span_per_round(app, uniform_group,
                                                   budget):
    query = GroupQuery.of(acco=1, trans=1, rest=1, attr=3, budget=budget)
    kernel = kfc.assemble_composite_items
    ledger = ledger_module.Ledger()
    ledger.install()
    try:
        app.kfc.build(uniform_group.profile(), query)
    finally:
        ledger.remove()
    assert kfc.assemble_composite_items is kernel
    rounds = [s for s in ledger.spans if s.name == "assembly.kernel"]
    assert len(rounds) == 1 + app.kfc.refine_iterations == 3
    assert [s.attrs["budgeted"] for s in rounds] == [query.has_budget] * 3
    seeding = [s for s in ledger.spans if s.name == "kfc.place_centroids"]
    assert len(seeding) == 1
    assert set(seeding[0].attrs) == {"fit"}
