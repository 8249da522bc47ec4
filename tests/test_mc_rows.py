"""Every protocol-table row is a model-checking scenario.

:func:`repro.mc.scenario.make_scenario` builds correct processes with
the row's own ``build(meta)``, so a row gets model checking from its
table entry alone.  The battery below explores every single-value row
exhaustively against an adaptively chosen silenced process (any pid,
roles included, or nobody; silenced from tick 0 or tick 2) and
requires a complete, clean and untruncated space; the replicated logs
are refused.
"""

import pytest

from repro.errors import ModelCheckError
from repro.mc.explore import explore_exhaustive
from repro.mc.scenario import make_scenario
from repro.protocols.table import PROTOCOLS


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_every_row_explores_clean(name):
    row = PROTOCOLS[name]
    if row.proposal is None:
        with pytest.raises(ModelCheckError, match="command log"):
            make_scenario(name)
        return
    size = dict(n=5, t=1) if name == "phase_king" else dict(n=4)
    # One horizon for every row: weak BA's and civit's own (12 and 24
    # ticks) bound the space and cut the fallback runs short.
    scenario = make_scenario(
        name, adversary="choose-silent", corrupt_ticks=[0, 2],
        reorder=False, max_ticks=120, **size,
    )
    result = explore_exhaustive(scenario, max_runs=200)
    assert result.complete
    assert result.ok, result.counterexamples[0].summary
    assert result.stats.truncated == 0


def test_algorithm_5_under_inbox_reordering():
    scenario = make_scenario(
        "strong_ba", corrupt_ticks=[0, 2], reorder=True, perm_cap=2
    )
    result = explore_exhaustive(scenario, max_runs=2000)
    assert result.complete
    assert result.ok, result.counterexamples[0].summary
    assert result.stats.truncated == 0


def test_canonical_name_and_cli_spelling_are_one_scenario():
    by_name = make_scenario("civit_strong_ba", n=4)
    by_cli = make_scenario("civit-strong-ba", n=4)
    assert by_name.name == by_cli.name == "civit-strong-ba"
    assert by_name.params == by_cli.params


def test_mutation_knob_on_a_row_whose_build_ignores_it():
    with pytest.raises(ModelCheckError, match="quorum_delta"):
        make_scenario("strong-ba", quorum_delta=-1)
    with pytest.raises(ModelCheckError, match="chatty_leaders"):
        make_scenario("psync-weak-ba", chatty_leaders=True)


def test_unknown_param_and_attack_are_refused():
    with pytest.raises(ModelCheckError, match="'max_ticks'"):
        make_scenario("psync-weak-ba", max_ticks=12)
    with pytest.raises(ModelCheckError, match="equivocating-certifier"):
        make_scenario("weak-ba", adversary="equivocating-certifier")
    with pytest.raises(ModelCheckError, match="unknown scenario"):
        make_scenario("nope")
