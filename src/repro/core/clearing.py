"""The market-clearing service of §4.2.

"For simplicity, assume the swap digraph is constructed by a (possibly
centralized) market-clearing service ... The clearing service is not a
trusted party, because the parties can check the consistency of the
clearing service's responses."

Each party submits an :class:`Offer` — the transfers it is willing to make
— together with its hashlock.  The service combines offers into a swap
digraph, chooses a leader set (a feedback vertex set), assembles the
hashlock vector from the leaders' submitted hashlocks, fixes a starting
time at least ``Δ`` in the future, and publishes the resulting
:class:`~repro.core.spec.SwapSpec` (optionally on a broadcast chain).

Consistency checking (:func:`check_spec_against_offer`) is what makes the
service trust-free: a party verifies that the published digraph contains
exactly the transfers it offered, that its own hashlock appears if it was
named a leader, and that the leader set really is an FVS; otherwise it
declines to participate and loses nothing.

The module also solves a miniature *clearing problem* for barter markets
(:func:`match_barter`): given single-item wants/haves, it extracts the
permutation cycles — the classic kidney-exchange shape the paper's related
work discusses — and returns them as swap digraphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.chain.blockchain import Blockchain
from repro.core.spec import SwapSpec, resolve_diam, resolve_leaders
from repro.crypto.keys import KeyDirectory
from repro.crypto.signatures import SignatureScheme
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.digraph.feedback import is_feedback_vertex_set
from repro.digraph.paths import is_strongly_connected
from repro.errors import ClearingError


@dataclass(frozen=True)
class ProposedTransfer:
    """One transfer a party is willing to make."""

    to: Vertex
    description: str = ""
    value: int = 1


@dataclass(frozen=True)
class Offer:
    """A party's submission: its identity, hashlock, and offered transfers.

    §4.2: "Each party creates a secret s and matching hashlock h = H(s).
    It sends the clearing service its hashlock, along with an offer
    characterizing the swaps it is willing to make."
    """

    party: Vertex
    hashlock: bytes
    transfers: tuple[ProposedTransfer, ...]

    def __post_init__(self) -> None:
        if not self.party:
            raise ClearingError("offer needs a party")
        if len(self.hashlock) != 32:
            raise ClearingError("hashlock must be a 32-byte digest")
        recipients = [t.to for t in self.transfers]
        if len(set(recipients)) != len(recipients):
            raise ClearingError(
                f"{self.party}: duplicate recipient in offer (use a "
                "MultiDigraph swap for parallel transfers)"
            )
        if self.party in recipients:
            raise ClearingError(f"{self.party}: cannot offer a transfer to itself")


@dataclass
class ClearingOutcome:
    """What the service publishes: the spec plus per-arc transfer values."""

    spec: SwapSpec
    arc_values: dict[Arc, int] = field(default_factory=dict)


class MarketClearingService:
    """Combines offers into a published swap spec (untrusted, checkable)."""

    def __init__(
        self,
        delta: int,
        directory: KeyDirectory,
        schemes: dict[str, SignatureScheme],
        timeout_slack: int = 0,
        exact_limit: int = 14,
    ) -> None:
        self.delta = delta
        self.directory = directory
        self.schemes = schemes
        self.timeout_slack = timeout_slack
        self.exact_limit = exact_limit
        self._offers: dict[Vertex, Offer] = {}

    def submit(self, offer: Offer) -> None:
        """Accept one offer per party; resubmission replaces the old offer."""
        if offer.party not in self.directory:
            raise ClearingError(
                f"{offer.party} has no published key; register it first"
            )
        self._offers[offer.party] = offer

    def offers(self) -> list[Offer]:
        return list(self._offers.values())

    def clear(
        self,
        now: int = 0,
        leaders: tuple[Vertex, ...] | None = None,
        broadcast_chain: Blockchain | None = None,
    ) -> ClearingOutcome:
        """Combine all offers into a swap digraph and publish the spec.

        The starting time is ``now + Δ`` (§4.2: "a starting time T, at
        least Δ in the future").  Raises :class:`ClearingError` when the
        combined digraph is not a strongly connected swap (parties would
        never agree to it — Theorem 3.5).
        """
        if not self._offers:
            raise ClearingError("no offers submitted")
        vertices = list(self._offers)
        arcs: list[Arc] = []
        arc_values: dict[Arc, int] = {}
        for offer in self._offers.values():
            for transfer in offer.transfers:
                if transfer.to not in self._offers:
                    raise ClearingError(
                        f"{offer.party} offers a transfer to {transfer.to}, "
                        "which submitted no offer"
                    )
                arc = (offer.party, transfer.to)
                arcs.append(arc)
                arc_values[arc] = transfer.value
        digraph = Digraph(vertices, arcs)
        if not is_strongly_connected(digraph):
            raise ClearingError(
                "combined offers do not form a strongly connected digraph; "
                "no atomic protocol exists for them (Theorem 3.5)"
            )

        if leaders is not None and not is_feedback_vertex_set(digraph, set(leaders)):
            raise ClearingError("proposed leaders are not a feedback vertex set")
        # Leaders and diam resolve by the rule every run uses
        # (repro.core.spec), read from the fields a Scenario would carry.
        run = SimpleNamespace(
            leaders=leaders, exact_limit=self.exact_limit, diam_override=None
        )
        leaders = resolve_leaders(run, digraph)

        hashlocks = tuple(self._offers[l].hashlock for l in leaders)
        spec = SwapSpec(
            digraph=digraph,
            leaders=leaders,
            hashlocks=hashlocks,
            start_time=now + self.delta,
            delta=self.delta,
            diam=resolve_diam(run, digraph),
            timeout_slack=self.timeout_slack,
            directory=self.directory,
            schemes=self.schemes,
        )
        if broadcast_chain is not None:
            broadcast_chain.publish_data(
                kind="swap_spec_published",
                author="clearing-service",
                payload=_spec_payload(spec),
                now=now,
            )
        return ClearingOutcome(spec=spec, arc_values=arc_values)


def _spec_payload(spec: SwapSpec) -> dict:
    return {
        "digraph": spec.digraph.to_dict(),
        "leaders": list(spec.leaders),
        "hashlocks": [h.hex() for h in spec.hashlocks],
        "start_time": spec.start_time,
        "delta": spec.delta,
        "diam": spec.diam,
        "timeout_slack": spec.timeout_slack,
    }


def check_spec_against_offer(spec: SwapSpec, offer: Offer) -> list[str]:
    """A party's §4.2 consistency check; returns human-readable complaints.

    Empty list means the published spec is consistent with what the party
    offered: its leaving arcs are exactly its offered transfers, its
    hashlock is used if (and only if) it was named a leader, the leader
    set is a genuine FVS, and the start time is sane.  A party with
    complaints simply declines — it has escrowed nothing yet.
    """
    problems: list[str] = []
    party = offer.party
    if not spec.digraph.has_vertex(party):
        return [f"{party} does not appear in the published digraph"]
    offered = {(party, t.to) for t in offer.transfers}
    published = set(spec.digraph.out_arcs(party))
    if offered != published:
        problems.append(
            f"{party}: published leaving arcs {sorted(published)} do not "
            f"match offered transfers {sorted(offered)}"
        )
    if party in spec.leaders:
        index = spec.lock_index_of(party)
        if spec.hashlocks[index] != offer.hashlock:
            problems.append(f"{party}: published hashlock is not the one submitted")
    if not is_feedback_vertex_set(spec.digraph, set(spec.leaders)):
        problems.append("published leader set is not a feedback vertex set")
    if not is_strongly_connected(spec.digraph):
        problems.append("published digraph is not strongly connected")
    return problems


# ---------------------------------------------------------------------------
# A miniature clearing problem: single-item barter (kidney-exchange shape)
# ---------------------------------------------------------------------------


def match_barter(
    haves: dict[Vertex, str], wants: dict[Vertex, str]
) -> list[Digraph]:
    """Extract swap cycles from single-item barter preferences.

    Each party holds one item (``haves``) and wants one item (``wants``).
    An arc ``(u, v)`` means ``u`` hands its item to ``v`` because ``v``
    wants exactly what ``u`` has.  When every wanted item is held by
    exactly one party, the relation is a partial permutation whose cycles
    are exactly the feasible swaps; parties not on a cycle are unmatched.

    Returns one strongly connected :class:`Digraph` per cycle (2-cycles
    and longer).  This is the "clearing problem" of the related-work
    discussion (Shapley-Scarf / kidney exchange), kept deliberately simple
    — the hard part the paper addresses is *executing* the swaps.
    """
    if set(haves) != set(wants):
        raise ClearingError("haves and wants must cover the same parties")
    item_holder: dict[str, Vertex] = {}
    for party, item in haves.items():
        if item in item_holder:
            raise ClearingError(f"item {item!r} held by two parties")
        item_holder[item] = party

    successor: dict[Vertex, Vertex] = {}
    for party, wanted in wants.items():
        holder = item_holder.get(wanted)
        if holder is None or holder == party:
            continue
        successor[holder] = party  # holder hands its item to the wanter

    cycles: list[list[Vertex]] = []
    visited: set[Vertex] = set()
    for start in haves:
        if start in visited or start not in successor:
            continue
        path: list[Vertex] = []
        seen_at: dict[Vertex, int] = {}
        v: Vertex | None = start
        while v is not None and v not in visited:
            if v in seen_at:
                cycles.append(path[seen_at[v]:])
                break
            seen_at[v] = len(path)
            path.append(v)
            v = successor.get(v)
        visited.update(path)

    digraphs = []
    for cycle in cycles:
        if len(cycle) < 2:
            continue
        arcs = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
        digraphs.append(Digraph(cycle, arcs))
    return digraphs
