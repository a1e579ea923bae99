"""The analytic fast path: closed-form ``RunReport`` synthesis for ``herlihy``.

E22 measures ~10-30 ms of pure-python event dispatch per warm
``herlihy`` run — yet for conforming scenarios every quantity in the
report is already known in closed form: :mod:`repro.analysis.predict`
computes the Fig. 3 end states, the §4 deadline ladder, completion
time, unlock-call counts, and the Theorem 4.10 contract bytes, and
:mod:`repro.analysis.protocol` defines exactly which scenarios that
model covers (``coverage="full"``).  This module closes the loop: it
*synthesizes* the simulator's ``RunReport`` — byte-identical
``to_dict()`` output, same run keys — without firing a single scheduler
event, and falls back to the real
:class:`~repro.sim.harness.SimulationHarness` whenever the analyzer
cannot certify the scenario (``coverage="verdict"``/``"none"``) or the
replay refuses.  That decision is written once, in
:func:`resolve_report` (with :func:`synthesize_run` as its closed-form
half): sweeps, the fleet worker, the swap service and ``lab check
--verify --fast-path`` all call it.  The fast path is not an engine of
its own: a front end asks for it with ``fast_path=True`` and a
``herlihy`` run, and gets the report ``herlihy`` would have produced,
under the same run key.

Three report fields are not in :class:`~repro.analysis.predict.
Prediction` and are reconstructed here by **transcript synthesis** —
taking every state view from a real
:class:`~repro.core.contract.SwapContract` and every record size from
the chain layer's own sizing functions instead of re-deriving them as
byte formulas of its own (so any change to ``state_view()``, a record's
shape or the canonical encoding is picked up automatically, not
silently diverged from):

``published_bytes`` / ``stored_bytes``
    Per arc, the chain appends exactly ``asset_registered``,
    ``contract_published``, ``|L|`` unlock ``contract_call`` records
    (in landing order — the key-propagation schedule below), one claim
    ``contract_call`` and one ``asset_transfer``.  Payload bytes are
    independent of tick values (no timestamps inside payloads), and
    every registered signature scheme has a fixed ``signature_size``.
    Each record is sized by the function the simulator's
    :class:`~repro.chain.blockchain.Blockchain` sizes it with
    (:func:`~repro.chain.blockchain.registration_size`,
    :func:`~repro.chain.blockchain.publication_size`,
    :func:`~repro.chain.blockchain.call_size`,
    :func:`~repro.chain.blockchain.transfer_size`), each built on the
    ledger's size identity: compact sorted-key JSON is compositional,
    so a record's length is a fixed frame plus its parts' lengths.  An
    unlock's arguments are :func:`~repro.core.hashkey.unlock_args_size`
    of its lock index, the secret's width, its path's encoded names and
    one ``signature_size`` per hop; its state view is the contract's
    :meth:`~repro.chain.contracts.Contract.state_size` after the
    contract's ``unlocked`` flags are set in landing order (the view's
    fixed bytes come from the size identity, with the members every
    contract copies from the spec measured once per
    :class:`~repro.core.spec.SwapSpec`, and ``true`` is a byte shorter
    than ``false``).  Names are measured once per synthesis, so escaped
    and non-ASCII names count right.
    Stored bytes add one 80-byte block header per record (the ledger
    seals one record per block).  ``tests/test_transcript_bytes.py``
    holds the count to the full record list
    (``tests/transcript_reference.py``) and the simulator.

``events_fired``
    A census of the conforming schedule: ``|V|`` party starts,
    ``|V| - |L|`` follower publish wakes, ``2·|A|·(|L| + 3)``
    observation deliveries (each arc's chain has two watchers; the
    asset-registration record predates subscription so it delivers
    nothing), ``|A|·|L|`` unlock wakes, ``|A|`` claim wakes, and one
    refund watch per *distinct* lock timeout per arc.  A lock's final
    timeout depends on the arc only through its counterparty, so the
    timeouts are read per party from
    :meth:`~repro.core.spec.SwapSpec.final_timeouts` (one
    ``D(party, ·)`` row), as the simulator's refund watches read them.

The key-propagation schedule (which lock unlocks when, in what order,
and the hashkey path it carries) is
:attr:`~repro.analysis.predict.Prediction.unlock_schedule`: ``predict``
derives every time, and deadline feasibility, from one FIFO replay of
the conforming cascade that mirrors the simulator's same-tick ordering
rule, and synthesis only reads what that replay recorded.  Each escrow
and each unlock landing becomes one milestone row; the rows are sorted
once and every :class:`~repro.sim.milestones.Milestone` is built once,
already numbered (:func:`_number_milestones`).

Parity is CI-gated: ``tests/test_analysis_engine.py`` sweeps every
registered family and every conforming variant, asserting byte
equality of ``to_dict()`` between :func:`resolve_report` with
``fast_path`` on and the ``herlihy`` simulator, modulo the
two declared non-deterministic fields (``wall_seconds`` and the
``extra["path"]`` provenance stamp, which is excluded from run-key
hashing so warm stores stay warm).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from copy import copy
from dataclasses import dataclass
from typing import Any

from repro.analysis.outcomes import Outcome
from repro.analysis.predict import Prediction
from repro.analysis.protocol import (
    COVERAGE_FULL,
    ScenarioAnalysis,
    analyze_scenario,
    coverage_ceiling,
)
from repro.api.engine import get_engine
from repro.api.report import RunReport
from repro.api.scenario import Scenario
from repro.chain.assets import Asset
from repro.chain.blockchain import (
    call_size,
    publication_size,
    registration_size,
    transfer_size,
)
from repro.chain.ledger import _BLOCK_HEADER_BYTES, EncodedSizes
from repro.chain.network import chain_id_for_arc
from repro.core.contract import SwapContract
from repro.core.hashkey import unlock_args_size
from repro.core.spec import SwapSpec, leader_secret
from repro.crypto.hashing import hash_secret
from repro.crypto.signatures import get_scheme
from repro.digraph.digraph import Arc, Vertex
from repro.errors import AnalysisError
from repro.sim.clock import ticks
from repro.sim.milestones import (
    CONTRACT_ESCROWED,
    PHASE1_START,
    PHASE2_COMPLETE,
    SECRET_RELEASED,
    SETTLED,
    Milestone,
)

#: ``RunReport.extra`` key recording which path produced the report.
PATH_KEY = "path"
PATH_ANALYTIC = "analytic"
PATH_SIMULATED = "simulated"

#: The engine the closed form reproduces (and falls back to).
FALLBACK_ENGINE = "herlihy"


def fast_path_eligible(analysis: ScenarioAnalysis) -> bool:
    """Can a report be synthesized from this analysis without running?"""
    return analysis.coverage == COVERAGE_FULL and analysis.prediction is not None


def analyze_for_fast_path(scenario: Scenario, engine: str) -> ScenarioAnalysis | None:
    """The analysis gating the fast path, or ``None`` when the closed
    form can never answer: :func:`~repro.analysis.protocol.coverage_ceiling`
    is below ``full`` for ``engine`` (any engine but ``herlihy``,
    non-default timing, strategies, crashes, broadcast).  That is cheaper
    to test than analyzing what we cannot use.

    Memoized by scenario *shape* (:meth:`Scenario.shape_text`), so a
    seed grid over one topology analyzes once.  Callers must treat the
    result as shape-level: use it for eligibility, and — only when
    coverage is full — its prediction, which is seed-independent by the
    same argument the report memo rests on.  Per-scenario diagnostics
    (``lab check``) must call :func:`analyze_scenario` directly.
    """
    if coverage_ceiling(scenario, engine) != COVERAGE_FULL:
        return None
    seed = scenario.seed
    if (
        not isinstance(scenario.name, str)
        or not isinstance(seed, int)
        or isinstance(seed, bool)
    ):
        # The memo key leaves the name and the seed out, so one of the
        # wrong type (refused by the rule table) must not find its
        # shape's analysis.
        return None
    key = scenario.shape_text()
    analysis = _lru_get(_ANALYSES, key)
    if analysis is None:
        analysis = analyze_scenario(scenario, engine=engine)
        _lru_put(_ANALYSES, key, analysis)
    return analysis


# ---------------------------------------------------------------------------
# the shape memo
# ---------------------------------------------------------------------------
#
# For every scenario the fast path accepts (coverage="full": uniform
# timing, no faults, no deviating strategies), the synthesized report is
# a pure function of the scenario's *shape* — its canonical content
# minus the seed.  The seed only varies the leader secrets, and those
# are fixed-width (32-byte digests, hex-encoded into fixed-size
# payloads), so byte counts, event censuses, deadlines, and milestones
# are all seed-invariant; ``tests/test_analysis_engine.py`` pins this
# with cross-seed byte-parity cases.  Memoizing analysis + synthesis by
# shape is what makes seed grids — the ROADMAP's million-scenario sweep
# workload — amortize to a dictionary probe per scenario (bench E28).
#
# A template also fixes most of a synthesized run's stored entry: its
# milestone counts (equal to ``Prediction.milestone_counts``, counted
# once per shape from the template's own milestones) and every byte of
# the entry's text but the scenario's ``name``, ``seed``, ``timing``
# member and declaration-order topology, and ``wall_seconds``.  So each
# memo entry keeps the counts, and the first untouched copy
# (:func:`shape_template`) that ``store_entry`` stores splits its text at
# those holes (:func:`repro.api.sweep.split_entry_text`) in place of
# encoding it; every later copy fills the holes instead of recounting
# and re-encoding (bench E38).
#
# What the memo cannot save is a shape's first sight, and a stream of
# new work (perfbench's workloads draw a new start time every round) is
# mostly first sights: one analysis, whose replay queues events in one
# bucket per tick, one transcript synthesis, which sizes |A| real
# contracts and builds each of its 1 + |A| + |A|·|L| + 2 milestones once
# as a slotted tuple, and the first stored copy's split.  Bench E39
# times those three layers.  Nothing is memoised on less than the shape
# text: a key without the start time would answer a new shape from an
# old one.


@dataclass
class ShapeTemplate:
    """One shape memo entry."""

    report: RunReport
    """The report every seed of the shape shares (``wall_seconds`` 0)."""
    milestones: dict[str, int]
    """Its milestone counts by kind."""
    entry: tuple[str, ...] | None
    """Its stored entry's text split at the holes, set when the first
    untouched copy is stored: ``None`` until then, ``()`` when it cannot
    be split (see :func:`~repro.api.sweep.split_entry_text`)."""


#: LRU bound for the shape memos (a serve process lives for days).
_MEMO_LIMIT = 256
_ANALYSES: OrderedDict[str, ScenarioAnalysis] = OrderedDict()
_TEMPLATES: OrderedDict[str, ShapeTemplate] = OrderedDict()

#: ``extra`` of a synthesized report as :func:`synthesize_run` stamps it.
_ANALYTIC_EXTRA = {PATH_KEY: PATH_ANALYTIC}


def _lru_get(memo: OrderedDict[str, Any], key: str) -> Any | None:
    value = memo.get(key)
    if value is not None:
        memo.move_to_end(key)
    return value


def _lru_put(memo: OrderedDict[str, Any], key: str, value: Any) -> None:
    memo[key] = value
    if len(memo) > _MEMO_LIMIT:
        memo.popitem(last=False)


def shape_template(report: RunReport) -> ShapeTemplate | None:
    """The memo entry ``report`` is an untouched synthesized copy of, or
    ``None``.

    Untouched: stamped ``extra == {"path": "analytic"}`` and nothing
    else, and every member but ``scenario``, ``extra`` and
    ``wall_seconds`` still equal to the template's, for the template of
    its scenario's own shape.  Anything else — a simulated report, a
    decoded one, a copy someone edited — gets ``None``.
    """
    if report.extra != _ANALYTIC_EXTRA:
        return None
    template = _TEMPLATES.get(report.scenario.shape_text())
    if template is None:
        return None
    mine = vars(report)
    expected = {
        **vars(template.report),
        "scenario": report.scenario,
        "extra": report.extra,
        "wall_seconds": report.wall_seconds,
    }
    return template if mine == expected else None


# ---------------------------------------------------------------------------
# transcript synthesis
# ---------------------------------------------------------------------------


#: One synthesized milestone before numbering: ``(time, rank, arc, kind,
#: party)``, rank 0 for an escrow and 1 for a release.
MilestoneRow = tuple[int, int, Arc, str, Vertex]


def synthesize_report(scenario: Scenario, prediction: Prediction) -> RunReport:
    """Build the simulator's all-Deal ``RunReport`` in closed form.

    Precondition: ``analyze_scenario(scenario)`` returned
    ``coverage="full"`` with this ``prediction`` attached (the caller's
    responsibility — :func:`synthesize_run` checks it).  The result
    carries ``engine="herlihy"`` — the engine whose run it reproduces —
    so run keys and serialized bytes match the simulated report;
    ``wall_seconds`` is left at ``0.0`` for the caller to stamp.

    Memoized by scenario shape: the first scenario of a shape pays the
    full transcript synthesis, every later seed of the same shape is a
    template copy (the report is seed-invariant — see the shape-memo
    notes above).  Always returns a fresh top-level object (private
    ``extra``/``outcomes``), so callers may stamp and mutate freely.
    """
    key = scenario.shape_text()
    template = _lru_get(_TEMPLATES, key)
    if template is None:
        report = _synthesize(scenario, prediction)
        template = ShapeTemplate(report, report.milestone_counts() or {}, None)
        _lru_put(_TEMPLATES, key, template)
    report = copy(template.report)
    report.scenario = scenario
    report.outcomes = dict(template.report.outcomes)
    report.extra = {}
    report.wall_seconds = 0.0
    return report


def _synthesize(scenario: Scenario, prediction: Prediction) -> RunReport:
    """The uncached transcript synthesis behind :func:`synthesize_report`."""
    if not prediction.deadline_feasible:
        # A hashkey expires before its unlock: the simulator refunds
        # there, so there is no all-Deal report to synthesize.
        raise AnalysisError(
            "analytic replay: a hashkey expires before its unlock lands"
        )
    digraph = scenario.digraph()
    leaders = prediction.leaders
    nlock = len(leaders)
    action = ticks(scenario.delta, scenario.action_fraction)
    signature_size = get_scheme(scenario.scheme_name).signature_size

    secrets = [leader_secret(scenario.seed, leader) for leader in leaders]
    spec = SwapSpec(
        digraph=digraph,
        leaders=leaders,
        hashlocks=tuple(hash_secret(secret) for secret in secrets),
        start_time=prediction.start_time,
        delta=scenario.delta,
        diam=prediction.diam,
        timeout_slack=scenario.timeout_slack,
    )

    # Every record is sized by the chain layer's own functions, as the
    # simulator's chains size the records they build (see the module
    # docstring); every secret has the same width.
    names = EncodedSizes()
    name_size = names.__getitem__
    secret_size = len(secrets[0])
    publish_times = prediction.publish_times
    unlock_schedule = prediction.unlock_schedule
    published_bytes = 0
    # One row per escrow and per unlock landing (see MilestoneRow).
    rows: list[MilestoneRow] = []
    for arc in digraph.arcs:
        u, v = arc
        contract_id = f"{chain_id_for_arc(arc)}/contract-0"
        asset_id = f"asset@{u}->{v}"
        contract = SwapContract(spec, arc, Asset(asset_id))
        state_size = contract.state_size
        published_bytes += registration_size(names, asset_id, u) + publication_size(
            names, u, contract_id, contract, contract.storage_size_bytes(),
            state_size(names),
        )
        rows.append((publish_times[u], 0, arc, CONTRACT_ESCROWED, u))
        unlocked = contract.unlocked
        for lock, path, landed in unlock_schedule[arc]:
            unlocked[lock] = True
            hops = len(path)
            args_size = unlock_args_size(
                lock, secret_size, sum(map(name_size, path)), hops, signature_size * hops
            )
            published_bytes += call_size(
                names, v, contract_id, "unlock", args_size, state_size(names)
            )
            rows.append((landed, 1, arc, SECRET_RELEASED, v))
        contract.mark_released(True)
        published_bytes += call_size(
            names, v, contract_id, "claim", contract.args_size("claim", {}, names),
            state_size(names),
        ) + transfer_size(names, contract_id, asset_id, contract_id, v)

    # Each arc's counterparty watches one refund per distinct lock
    # timeout.  A lock's final timeout depends only on the counterparty,
    # and every party is one (the swap digraph is strongly connected).
    watches = {v: len(set(spec.final_timeouts(v))) for v in digraph.vertices}
    settled_time = max(map(max, map(spec.final_timeouts, digraph.vertices))) + action
    arc_count = digraph.arc_count()

    # Event census of the conforming schedule (see the module docstring).
    vertex_count = len(digraph.vertices)
    events_fired = (
        vertex_count                      # party starts
        + (vertex_count - nlock)          # follower publish wakes
        + 2 * arc_count * (nlock + 3)     # observation deliveries
        + arc_count * nlock               # unlock wakes
        + arc_count                       # claim wakes
        + sum(watches[v] for _, v in digraph.arcs)  # refund watches
    )

    return RunReport(
        engine=FALLBACK_ENGINE,
        scenario=scenario,
        outcomes={v: Outcome.DEAL for v in digraph.vertices},
        conforming=tuple(sorted(digraph.vertices)),
        leaders=leaders,
        triggered=tuple(sorted(digraph.arcs)),
        refunded=(),
        stuck_in_escrow=(),
        completion_time=prediction.completion_time,
        phase_two_bound=prediction.phase_two_bound,
        events_fired=events_fired,
        stored_bytes=published_bytes + _BLOCK_HEADER_BYTES * arc_count * (nlock + 4),
        contract_storage_bytes=prediction.contract_storage_bytes,
        published_bytes=published_bytes,
        unlock_calls=prediction.unlock_calls,
        wall_seconds=0.0,
        extra={},
        milestones=_number_milestones(
            prediction.start_time, rows, prediction.completion_time, settled_time
        ),
    )


def _number_milestones(
    start: int, rows: list[MilestoneRow], completion: int, settled: int
) -> tuple[Milestone, ...]:
    """The synthesized run's milestones, each built once and numbered as
    built: ``phase1-start``, then ``rows`` sorted, then
    ``phase2-complete`` and ``settled``.  The row order is the
    synthesis's own: by time, then escrows before releases, each by arc.
    Within a tick it is not the simulator's tracker order (the tracker
    follows the scheduler's firing order), so a tick's milestones may
    carry other indices than a simulated run's; the tick multisets
    agree (``tests/test_milestone_record.py``)."""
    rows.sort()
    milestones = [Milestone(0, start, PHASE1_START)]
    milestones += [
        Milestone(index, when, kind, party, arc)
        for index, (when, _, arc, kind, party) in enumerate(rows, 1)
    ]
    last = len(milestones)
    milestones.append(Milestone(last, completion, PHASE2_COMPLETE))
    milestones.append(Milestone(last + 1, settled, SETTLED))
    return tuple(milestones)


# ---------------------------------------------------------------------------
# the resolution policy: closed form if certified, else simulate
# ---------------------------------------------------------------------------


def synthesize_run(engine_name: str, scenario: Scenario) -> RunReport | None:
    """The closed-form report for a fully covered scenario, stamped
    ``extra["path"] = "analytic"``, or ``None`` when the analyzer cannot
    certify it or the replay refuses (the caller simulates).  Front ends
    with a tier of their own between the two (the swap service settles
    on the submit path and queues the rest) call this directly; the rest
    go through :func:`resolve_report`."""
    analysis = analyze_for_fast_path(scenario, engine_name)
    if analysis is None or not fast_path_eligible(analysis):
        return None
    started = time.perf_counter()
    assert analysis.prediction is not None
    try:
        report = synthesize_report(scenario, analysis.prediction)
    except AnalysisError:
        # Defence only: the analyzer certifies only deadline-feasible
        # predictions, so synthesis should never refuse one; if it
        # does, simulate rather than guess.
        return None
    report.wall_seconds = time.perf_counter() - started
    report.extra[PATH_KEY] = PATH_ANALYTIC
    return report


def resolve_report(engine_name: str, scenario: Scenario, fast_path: bool) -> RunReport:
    """The report for one run: the closed form when ``fast_path`` is on
    and :func:`synthesize_run` certifies the scenario, else the engine's
    own ``run``.  Under ``fast_path`` a simulated report is stamped
    ``extra["path"] = "simulated"``; without it the plain run comes back
    unstamped.  A :class:`~repro.errors.ReproError` from the engine
    propagates."""
    if fast_path:
        report = synthesize_run(engine_name, scenario)
        if report is not None:
            return report
    report = get_engine(engine_name).run(scenario)
    if fast_path:
        report.extra[PATH_KEY] = PATH_SIMULATED
    return report

