"""Test-only reference for the analytic transcript synthesis.

:func:`reference_synthesize` is the synthesis
``repro.analysis.engine._synthesize`` performed before it counted the
transcript's bytes per arc: every one of the ``|A|·(|L| + 4)`` ledger
records of the conforming run is built as a dict — one state view of a
real :class:`~repro.core.contract.SwapContract` per record — and the
whole list is encoded in one ``canonical_encoded_total`` pass.
:func:`reference_records` is that record builder on its own.  The
transcript parity tests and bench E34 hold the shipped synthesis to its
bytes.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.engine import FALLBACK_ENGINE
from repro.analysis.outcomes import Outcome
from repro.analysis.predict import Prediction
from repro.api.report import RunReport
from repro.api.scenario import Scenario
from repro.chain.assets import Asset
from repro.chain.ledger import _BLOCK_HEADER_BYTES, bytes_marker, canonical_encoded_total
from repro.chain.network import chain_id_for_arc
from repro.core.contract import SwapContract
from repro.core.spec import SwapSpec
from repro.crypto.hashing import hash_secret
from repro.crypto.signatures import get_scheme
from repro.digraph.digraph import Arc, Vertex
from repro.errors import AnalysisError
from repro.sim.clock import ticks
from repro.sim.harness import derive_secret
from repro.sim.milestones import (
    CONTRACT_ESCROWED,
    PHASE1_START,
    PHASE2_COMPLETE,
    SECRET_RELEASED,
    SETTLED,
    Milestone,
)


def _transcript(scenario: Scenario, prediction: Prediction):
    """Every record of the conforming run, plus the per-arc facts the
    report needs: ``(records, final_timeouts, escrow_milestones,
    release_times)``."""
    if not prediction.deadline_feasible:
        raise AnalysisError(
            "analytic replay: a hashkey expires before its unlock lands"
        )
    digraph = scenario.digraph()
    leaders = prediction.leaders
    nlock = len(leaders)
    scheme = get_scheme(scenario.scheme_name)
    placeholder_sig = bytes_marker(b"\x00" * scheme.signature_size)

    secrets = [derive_secret("secret", scenario.seed, leader) for leader in leaders]
    marked_secrets = [bytes_marker(secret) for secret in secrets]
    spec = SwapSpec(
        digraph=digraph,
        leaders=leaders,
        hashlocks=tuple(hash_secret(secret) for secret in secrets),
        start_time=prediction.start_time,
        delta=scenario.delta,
        diam=prediction.diam,
        timeout_slack=scenario.timeout_slack,
    )
    final_timeouts = {
        arc: [spec.lock_final_timeout(arc, i) for i in range(nlock)]
        for arc in digraph.arcs
    }

    records: list[dict[str, Any]] = []

    def append(kind: str, author: str, payload: dict[str, Any]) -> None:
        records.append({"kind": kind, "author": author, "payload": payload})

    escrow_milestones: list[Milestone] = []
    release_times: list[tuple[int, Arc, Vertex]] = []
    for arc in digraph.arcs:
        u, v = arc
        contract_id = f"{chain_id_for_arc(arc)}/contract-0"
        asset_id = f"asset@{u}->{v}"
        asset = Asset(asset_id=asset_id, description=f"asset {u} owes {v}", value=1)
        contract = SwapContract(spec, arc, asset)
        append("asset_registered", u, {"asset_id": asset_id, "owner": u})
        append(
            "contract_published",
            u,
            {
                "contract_id": contract_id,
                "contract_type": "SwapContract",
                "asset_id": asset_id,
                "storage_bytes": contract.storage_size_bytes(),
                "state": contract.state_view(),
            },
        )
        escrow_milestones.append(
            Milestone(
                index=0, time=prediction.publish_times[u],
                kind=CONTRACT_ESCROWED, party=u, arc=arc,
            )
        )
        for i, path, landed in prediction.unlock_schedule[arc]:
            contract.unlocked[i] = True
            append(
                "contract_call",
                v,
                {
                    "contract_id": contract_id,
                    "method": "unlock",
                    "args": {
                        "lock_index": i,
                        "secret": marked_secrets[i],
                        "path": list(path),
                        "sig_layers": [placeholder_sig] * len(path),
                    },
                    "ok": True,
                    "state": contract.state_view(),
                },
            )
            release_times.append((landed, arc, v))
        contract.claimed = True
        contract._halt()
        append(
            "contract_call",
            v,
            {
                "contract_id": contract_id,
                "method": "claim",
                "args": {},
                "ok": True,
                "state": contract.state_view(),
            },
        )
        append(
            "asset_transfer",
            contract_id,
            {"asset_id": asset_id, "from": contract_id, "to": v},
        )
    return records, final_timeouts, escrow_milestones, release_times


def reference_records(scenario: Scenario, prediction: Prediction) -> list[dict[str, Any]]:
    """Every ledger record body of the conforming run, chain by chain."""
    return _transcript(scenario, prediction)[0]


def reference_synthesize(scenario: Scenario, prediction: Prediction) -> RunReport:
    """The all-Deal report, its bytes from the full record list."""
    records, final_timeouts, escrow_milestones, release_times = _transcript(
        scenario, prediction
    )
    published_bytes = canonical_encoded_total(records)
    digraph = scenario.digraph()
    leaders = prediction.leaders
    nlock = len(leaders)
    action = ticks(scenario.delta, scenario.action_fraction)
    refund_watches = sum(len(set(row)) for row in final_timeouts.values())

    vertex_count = len(digraph.vertices)
    arc_count = digraph.arc_count()
    events_fired = (
        vertex_count
        + (vertex_count - nlock)
        + 2 * arc_count * (nlock + 3)
        + arc_count * nlock
        + arc_count
        + refund_watches
    )

    settled_time = max(max(row) for row in final_timeouts.values()) + action
    milestones: list[Milestone] = [
        Milestone(index=0, time=prediction.start_time, kind=PHASE1_START)
    ]
    timeline: list[Milestone] = sorted(
        escrow_milestones, key=lambda m: (m.time, m.arc or ())
    ) + [
        Milestone(index=0, time=when, kind=SECRET_RELEASED, party=party, arc=arc)
        for when, arc, party in sorted(release_times)
    ]
    timeline.sort(key=lambda m: m.time)
    timeline.append(
        Milestone(index=0, time=prediction.completion_time, kind=PHASE2_COMPLETE)
    )
    timeline.append(Milestone(index=0, time=settled_time, kind=SETTLED))
    for event in timeline:
        milestones.append(
            Milestone(
                index=len(milestones), time=event.time, kind=event.kind,
                party=event.party, arc=event.arc,
            )
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
        stored_bytes=published_bytes + _BLOCK_HEADER_BYTES * len(records),
        contract_storage_bytes=prediction.contract_storage_bytes,
        published_bytes=published_bytes,
        unlock_calls=prediction.unlock_calls,
        wall_seconds=0.0,
        extra={},
        milestones=tuple(milestones),
    )
