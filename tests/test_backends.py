"""The backend registry itself, and the refactor's no-op guarantee.

The Protocol API is a pure indirection: dispatching through
``get_backend("cohen")`` must produce byte-identical traces
(``Trace.canonical()``) and word bills to importing the protocol
modules directly — the acceptance bar for moving every consumer onto
the registry without re-validating five subsystems."""

import pytest

import repro.protocols as protocols
from repro.adversary import SilentBehavior
from repro.apps import (
    ClientWorkload,
    pipelined_smr_replica_protocol,
    run_pipelined_smr,
    run_smr,
    smr_replica_protocol,
)
from repro.apps.clients import assign_queues
from repro.config import RunParameters, SystemConfig
from repro.core.adaptive_strong_ba import adaptive_strong_ba_protocol
from repro.core.byzantine_broadcast import (
    byzantine_broadcast_protocol,
    run_byzantine_broadcast,
)
from repro.core.strong_ba import strong_ba_protocol
from repro.core.weak_ba import weak_ba_protocol
from repro.fallback import (
    dolev_strong_protocol,
    fallback_ba,
    phase_king_protocol,
    run_dolev_strong,
    run_fallback_ba,
    run_phase_king,
)
from repro.protocols.table import PROTOCOLS, run_protocol
from repro.recovery import RecoveryManager, factory_from_meta, load_history
from repro.runtime import Simulation
from repro.core.adaptive_strong_ba import run_adaptive_strong_ba
from repro.core.strong_ba import run_strong_ba
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import run_weak_ba
from repro.errors import ConfigurationError


class TestRegistry:
    def test_known_backends(self):
        assert protocols.backend_names() == ("civit", "cohen")

    def test_get_backend_roundtrip(self):
        for name in protocols.backend_names():
            assert protocols.get_backend(name).name == name

    def test_unknown_backend_lists_known_sorted(self):
        with pytest.raises(ConfigurationError) as err:
            protocols.get_backend("nope")
        assert "'nope'" in str(err.value)
        assert "['civit', 'cohen']" in str(err.value)

    def test_backend_name_must_be_identifier(self):
        for name, backend in protocols.BACKENDS.items():
            assert backend.name == name and name.isidentifier()

    def test_replay_builders_registered_on_import(self, config5, tmp_path):
        """Whatever name a backend's drivers stamp into a WAL is a row
        of the protocol table, so ``factory_from_meta`` rebuilds it."""
        for backend in protocols.all_backends():
            drivers = {
                "weak": lambda **kw: backend.run_weak_ba(
                    config5, {p: "v" for p in config5.processes},
                    lambda suite, cfg: ExternalValidity(lambda v: True), **kw
                ),
                "strong": lambda **kw: backend.run_strong_ba(
                    config5, {p: 1 for p in config5.processes}, **kw
                ),
                "adaptive": lambda **kw: backend.run_adaptive_strong_ba(
                    config5, {p: "v" for p in config5.processes}, **kw
                ),
            }
            for label, driver in drivers.items():
                wal_dir = tmp_path / backend.name / label
                driver(params=RunParameters(recovery=RecoveryManager(wal_dir)))
                meta = load_history(wal_dir / "p0").meta
                assert meta["protocol"] in PROTOCOLS
                assert callable(factory_from_meta(meta))

    def test_every_backend_publishes_envelopes(self):
        config = SystemConfig.with_optimal_resilience(7)
        for backend in protocols.all_backends():
            assert backend.strong_ba_tick_bound(config) > 0
            budget_0 = backend.strong_ba_word_budget(config, 0)
            budget_t = backend.strong_ba_word_budget(config, config.t)
            assert 0 < budget_0 <= budget_t

    def test_shared_core_claim_is_true(self):
        """One weak BA (Algorithm 3) serves every backend."""
        for backend in protocols.all_backends():
            assert backend.run_weak_ba is run_weak_ba


class TestDispatchIsByteIdentical:
    """Same seed, same inputs: registry dispatch vs direct import."""

    def test_strong_ba(self, config7, test_seed):
        inputs = {p: p % 2 for p in config7.processes}
        direct = run_strong_ba(config7, inputs, seed=test_seed)
        dispatched = protocols.get_backend("cohen").run_strong_ba(
            config7, inputs, seed=test_seed
        )
        assert dispatched.trace.canonical() == direct.trace.canonical()
        assert dispatched.correct_words == direct.correct_words

    def test_weak_ba(self, config7, test_seed):
        validity = lambda suite, cfg: ExternalValidity(
            lambda v: isinstance(v, str)
        )
        inputs = {p: f"v{p % 2}" for p in config7.processes}
        direct = run_weak_ba(config7, inputs, validity, seed=test_seed)
        dispatched = protocols.get_backend("cohen").run_weak_ba(
            config7, inputs, validity, seed=test_seed
        )
        assert dispatched.trace.canonical() == direct.trace.canonical()
        assert dispatched.correct_words == direct.correct_words

    def test_adaptive_strong_ba(self, config7, test_seed):
        inputs = {p: "V" for p in config7.processes}
        direct = run_adaptive_strong_ba(config7, inputs, seed=test_seed)
        dispatched = protocols.get_backend("cohen").run_adaptive_strong_ba(
            config7, inputs, seed=test_seed
        )
        assert dispatched.trace.canonical() == direct.trace.canonical()
        assert dispatched.correct_words == direct.correct_words

    def test_civit_dispatch_deterministic(self, config7, test_seed):
        """The new backend honors the same determinism contract."""
        civit = protocols.get_backend("civit")
        inputs = {p: p % 2 for p in config7.processes}
        first = civit.run_strong_ba(config7, inputs, seed=test_seed)
        second = civit.run_strong_ba(config7, inputs, seed=test_seed)
        assert first.trace.canonical() == second.trace.canonical()
        assert first.correct_words == second.correct_words

    def test_civit_strong_ba_is_its_table_row(self, config7, test_seed):
        inputs = {p: p % 2 for p in config7.processes}
        dispatched = protocols.get_backend("civit").run_strong_ba(
            config7, inputs, seed=test_seed
        )
        direct = run_protocol(
            "civit_strong_ba", config7,
            {p: {"input": v} for p, v in inputs.items()}, seed=test_seed,
        )
        assert dispatched.trace.canonical() == direct.trace.canonical()
        assert dispatched.correct_words == direct.correct_words


_ACCEPT_STR = ExternalValidity(lambda v: isinstance(v, str))
_CLIENTS = [
    ClientWorkload(client="a", ops=(("set", "x", 1), ("set", "y", 2)), replicas=(0, 1)),
    ClientWorkload(client="b", ops=(("set", "z", 3), ("del", "x")), replicas=(2, 3, 4)),
]
_COMMANDS = {p: [("set", f"k{p}", p)] for p in range(5)}
_N5 = SystemConfig.with_optimal_resilience(5)
_PK = SystemConfig(n=5, t=1)  # phase king needs n >= 4t + 1
_QUEUES = assign_queues(_CLIENTS, _N5)

FOLDED_DRIVERS = {
    # name: (config, run_*(seed) through the table, pid -> hand-built factory)
    "weak_ba": (
        _N5,
        lambda seed: run_weak_ba(
            _N5, {p: f"v{p % 2}" for p in range(5)},
            lambda suite, cfg: _ACCEPT_STR, seed=seed,
        ),
        lambda p: lambda ctx: weak_ba_protocol(ctx, f"v{p % 2}", _ACCEPT_STR),
    ),
    "bb": (
        _N5,
        lambda seed: run_byzantine_broadcast(_N5, 1, "payload", seed=seed),
        lambda p: lambda ctx: byzantine_broadcast_protocol(ctx, 1, "payload"),
    ),
    "strong_ba": (
        _N5,
        lambda seed: run_strong_ba(_N5, {p: p % 2 for p in range(5)}, seed=seed),
        lambda p: lambda ctx: strong_ba_protocol(ctx, p % 2),
    ),
    "adaptive_strong_ba": (
        _N5,
        lambda seed: run_adaptive_strong_ba(
            _N5, {p: "V" for p in range(5)}, seed=seed
        ),
        lambda p: lambda ctx: adaptive_strong_ba_protocol(ctx, "V"),
    ),
    "civit_strong_ba": (
        _N5,
        lambda seed: protocols.get_backend("civit").run_strong_ba(
            _N5, {p: p % 2 for p in range(5)}, seed=seed
        ),
        lambda p: lambda ctx: adaptive_strong_ba_protocol(
            ctx, p % 2, session="civit", binary=True, num_views=_N5.t + 1
        ),
    ),
    "civit_adaptive_strong_ba": (
        _N5,
        lambda seed: protocols.get_backend("civit").run_adaptive_strong_ba(
            _N5, {p: "V" for p in range(5)}, seed=seed
        ),
        lambda p: lambda ctx: adaptive_strong_ba_protocol(
            ctx, "V", session="civit-asba", num_views=_N5.t + 1
        ),
    ),
    "recursive_ba": (
        _N5,
        lambda seed: run_fallback_ba(
            _N5, {p: f"v{p % 2}" for p in range(5)}, seed=seed, round_ticks=2
        ),
        lambda p: lambda ctx: fallback_ba(ctx, f"v{p % 2}", round_ticks=2),
    ),
    "dolev_strong": (
        _N5,
        lambda seed: run_dolev_strong(_N5, 2, "payload", seed=seed),
        lambda p: lambda ctx: dolev_strong_protocol(ctx, 2, "payload"),
    ),
    "phase_king": (
        _PK,
        lambda seed: run_phase_king(_PK, {p: p % 2 for p in range(5)}, seed=seed),
        lambda p: lambda ctx: phase_king_protocol(ctx, p % 2),
    ),
    "smr": (
        _N5,
        lambda seed: run_smr(_N5, _COMMANDS, 3, seed=seed),
        lambda p: lambda ctx: smr_replica_protocol(ctx, _COMMANDS[p], 3),
    ),
    "batched_smr": (
        _N5,
        lambda seed: run_protocol(
            "batched_smr", _N5,
            {
                p: {"num_slots": 3, "batch_size": 2, "queue": tuple(_QUEUES[p])}
                for p in _N5.processes
            },
            seed=seed,
        ),
        lambda p: lambda ctx: pipelined_smr_replica_protocol(
            ctx, _QUEUES[p], 3, window=1, batch_size=2
        ),
    ),
    "pipelined_smr": (
        _N5,
        lambda seed: run_pipelined_smr(
            _N5, _CLIENTS, 4, window=2, batch_size=2, seed=seed
        ),
        lambda p: lambda ctx: pipelined_smr_replica_protocol(
            ctx, _QUEUES[p], 4, window=2, batch_size=2
        ),
    ),
}


class TestFoldIsByteIdentical:
    """Every public ``run_*`` is "assemble the meta, call the table's
    driver"; the run it produces must be the run of a hand-populated
    ``Simulation`` over directly imported generators."""

    def test_covers_the_whole_table(self):
        assert set(FOLDED_DRIVERS) == set(PROTOCOLS)

    @pytest.mark.parametrize("name", sorted(FOLDED_DRIVERS))
    def test_driver_equals_hand_built_simulation(self, name, test_seed):
        config, run, factory_for = FOLDED_DRIVERS[name]
        folded = run(test_seed)
        simulation = Simulation(config, seed=test_seed, max_ticks=500_000)
        for pid in config.processes:
            simulation.add_process(pid, factory_for(pid))
        direct = simulation.run()
        assert folded.trace.canonical() == direct.trace.canonical()
        assert folded.correct_words == direct.correct_words
        assert folded.decisions == direct.decisions


# (backend, driver, f silent) -> (correct words, correct messages,
# signatures, ticks, the correct processes' common decision, trace
# events) at n=7, seed 11, with p0..p(f-1) silent.
PINNED_RUNS = {
    ("cohen", "run_weak_ba", 0): (30, 30, 90, 48, "'v1'", 15),
    ("cohen", "run_weak_ba", 1): (28, 28, 88, 48, "'v1'", 13),
    ("cohen", "run_weak_ba", 3): (220, 220, 340, 112, "'v0'", 28),
    ("cohen", "run_strong_ba", 0): (24, 24, 78, 8, "0", 14),
    ("cohen", "run_strong_ba", 1): (341, 341, 749, 73, "0", 18),
    ("cohen", "run_strong_ba", 3): (164, 164, 212, 73, "0", 12),
    ("cohen", "run_adaptive_strong_ba", 0): (48, 48, 126, 69, "'V'", 30),
    ("cohen", "run_adaptive_strong_ba", 1): (45, 45, 123, 69, "'V'", 26),
    ("cohen", "run_adaptive_strong_ba", 3): (379, 379, 997, 133, "'V'", 37),
    ("civit", "run_weak_ba", 0): (30, 30, 90, 48, "'v1'", 15),
    ("civit", "run_weak_ba", 1): (28, 28, 88, 48, "'v1'", 13),
    ("civit", "run_weak_ba", 3): (220, 220, 340, 112, "'v0'", 28),
    ("civit", "run_strong_ba", 0): (48, 48, 126, 60, "0", 30),
    ("civit", "run_strong_ba", 1): (613, 613, 1615, 124, "0", 52),
    ("civit", "run_strong_ba", 3): (370, 370, 970, 124, "0", 34),
    ("civit", "run_adaptive_strong_ba", 0): (48, 48, 126, 60, "'V'", 30),
    ("civit", "run_adaptive_strong_ba", 1): (45, 45, 123, 60, "'V'", 26),
    ("civit", "run_adaptive_strong_ba", 3): (379, 379, 997, 124, "'V'", 37),
}


@pytest.mark.parametrize("name, driver, f", sorted(PINNED_RUNS))
def test_backend_drivers_are_pinned(name, driver, f):
    """Every backend driver's bill, length and decision, as literals:
    how a backend is wired must never move them."""
    config = SystemConfig.with_optimal_resilience(7)
    silent = {p: SilentBehavior() for p in range(f)}
    correct = [p for p in config.processes if p not in silent]
    backend = protocols.get_backend(name)
    if driver == "run_weak_ba":
        result = backend.run_weak_ba(
            config, {p: f"v{p % 2}" for p in correct},
            lambda suite, cfg: _ACCEPT_STR, seed=11, byzantine=silent,
        )
    else:
        inputs = {p: p % 2 if driver == "run_strong_ba" else "V" for p in correct}
        result = getattr(backend, driver)(
            config, inputs, seed=11, byzantine=silent
        )
    assert set(result.decisions) == set(correct)
    assert (
        result.correct_words,
        result.ledger.correct_messages,
        result.ledger.signature_count(),
        result.ticks,
        repr(result.unanimous_decision()),
        len(result.trace.events),
    ) == PINNED_RUNS[name, driver, f]
