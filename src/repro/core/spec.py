"""The published swap instance: digraph, leaders, hashlocks, timing.

§4.2: the market-clearing service "publishes a swap digraph D = (V, A), a
vector L ⊂ V of leaders forming a feedback vertex set, a vector of those
leaders' hashlocks h0...hl, and a starting time T".  A :class:`SwapSpec`
is exactly that publication, plus the timing parameters every contract
needs (``Δ``, the agreed ``diam(D)`` value, and the optional timeout slack
discussed in DESIGN.md §2) and the key directory used to verify hashkey
signature chains.

The spec is common knowledge: every party and every contract holds (a copy
of) it, which is what Theorem 4.10's ``O(|A|^2)`` space bound charges for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chain.ledger import encoded_size, object_frame
from repro.crypto.keys import KeyDirectory
from repro.crypto.signatures import SignatureScheme
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.digraph.feedback import feedback_vertex_set, require_feedback_vertex_set
from repro.digraph.paths import (
    diameter,
    is_strongly_connected,
    longest_path_length,
)
from repro.errors import ClearingError, NotStronglyConnectedError
from repro.sim.harness import derive_secret


@dataclass
class SwapSpec:
    """Everything common knowledge among the parties of one swap.

    Attributes:
        digraph: The swap digraph ``D``; vertices are party addresses.
        leaders: Ordered leader vector ``L``; index ``i`` owns hashlock ``i``.
        hashlocks: ``h_i = H(s_i)`` for each leader, in leader order.
        start_time: The protocol starting time ``T`` in ticks.
        delta: The paper's ``Δ`` in ticks.
        diam: The ``diam(D)`` value all contracts use in deadline formulas
            (an upper bound is safe; see DESIGN.md §2).
        timeout_slack: Extra Δ-multiples added to every hashkey deadline.
            ``0`` reproduces Fig. 5 line 28 verbatim.
        directory: Published address → public-key directory.
        schemes: Signature scheme instances by name, shared by all parties
            and contracts (stateful schemes require shared instances).
    """

    digraph: Digraph
    leaders: tuple[Vertex, ...]
    hashlocks: tuple[bytes, ...]
    start_time: int
    delta: int
    diam: int
    timeout_slack: int = 0
    directory: KeyDirectory = field(default_factory=KeyDirectory)
    schemes: dict[str, SignatureScheme] = field(default_factory=dict)
    broadcast_unlock_enabled: bool = False
    """When True, contracts accept the §4.5 broadcast short-circuit paths
    (a logical arc from every follower directly to each leader)."""

    _shared_view_size: int | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _stored_fields_size: int | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _final_timeouts: dict[Vertex, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not is_strongly_connected(self.digraph):
            raise NotStronglyConnectedError(
                "swap digraphs must be strongly connected (Theorem 3.5)"
            )
        if len(self.leaders) != len(set(self.leaders)):
            raise ClearingError("duplicate leader")
        if not self.leaders:
            raise ClearingError("at least one leader is required")
        for leader in self.leaders:
            if not self.digraph.has_vertex(leader):
                raise ClearingError(f"leader {leader!r} is not a party")
        require_feedback_vertex_set(self.digraph, set(self.leaders))
        if len(self.hashlocks) != len(self.leaders):
            raise ClearingError(
                f"{len(self.leaders)} leaders but {len(self.hashlocks)} hashlocks"
            )
        if self.delta <= 0:
            raise ClearingError("delta must be positive")
        if self.start_time < 0:
            raise ClearingError("start_time must be non-negative")
        if self.diam < 1:
            raise ClearingError("diam must be at least 1")
        if self.timeout_slack < 0:
            raise ClearingError("timeout_slack must be non-negative")

    # -- roles -------------------------------------------------------------------

    @property
    def parties(self) -> tuple[Vertex, ...]:
        return self.digraph.vertices

    def is_leader(self, address: Vertex) -> bool:
        return address in self.leaders

    def is_follower(self, address: Vertex) -> bool:
        return self.digraph.has_vertex(address) and address not in self.leaders

    def lock_count(self) -> int:
        return len(self.leaders)

    def lock_index_of(self, leader: Vertex) -> int:
        try:
            return self.leaders.index(leader)
        except ValueError:
            raise ClearingError(f"{leader!r} is not a leader") from None

    def leader_of_lock(self, lock_index: int) -> Vertex:
        if not 0 <= lock_index < len(self.leaders):
            raise ClearingError(f"no hashlock with index {lock_index}")
        return self.leaders[lock_index]

    # -- deadlines (§4.1) ----------------------------------------------------------

    def hashkey_deadline(self, path_length: int) -> int:
        """Absolute expiry of a hashkey whose path has ``path_length`` arcs.

        §4.1: "A hashkey (s, p, σ) times out at time (diam(D) + |p|)·Δ
        after the start of the protocol" (plus the configured slack).
        """
        if path_length < 0:
            raise ClearingError("path length cannot be negative")
        return self.start_time + (self.diam + path_length + self.timeout_slack) * self.delta

    def longest_path_to(self, source: Vertex, leader: Vertex) -> int:
        """``D(source, leader)`` (longest simple path length), from the
        topology's memoised table."""
        return longest_path_length(self.digraph, source, leader)

    def lock_final_timeout(self, arc: Arc, lock_index: int) -> int:
        """When hashlock ``lock_index`` has timed out *on this arc*.

        §4.1: "A hashlock has timed out on an arc when all of its hashkeys
        on that arc have timed out."  The latest valid hashkey follows the
        longest simple path from the arc's counterparty to the lock's
        leader, so the final timeout is
        ``start + (diam + D(counterparty, leader_i) + slack)·Δ``.
        """
        self.leader_of_lock(lock_index)  # refuses an index with no hashlock
        return self.final_timeouts(arc[1])[lock_index]

    def final_timeouts(self, counterparty: Vertex) -> tuple[int, ...]:
        """Every lock's :meth:`lock_final_timeout` on the arcs entering
        ``counterparty``, in lock order.  A lock's final timeout depends
        on the arc only through its counterparty, so they are computed
        once per counterparty and memoised per spec (the contracts'
        refund checks and the parties' refund watches read it)."""
        timeouts = self._final_timeouts.get(counterparty)
        if timeouts is None:
            base = self.diam + self.timeout_slack
            timeouts = self._final_timeouts[counterparty] = tuple(
                self.start_time
                + (base + self._final_path_length(counterparty, leader)) * self.delta
                for leader in self.leaders
            )
        return timeouts

    def _final_path_length(self, counterparty: Vertex, leader: Vertex) -> int:
        """``D(counterparty, leader)``, at least 1 through a broadcast arc."""
        longest = self.longest_path_to(counterparty, leader)
        if self.broadcast_unlock_enabled and counterparty != leader:
            # The logical follower→leader arc adds a path of length 1, which
            # is never the longest unless the graph is tiny; max for safety.
            longest = max(longest, 1)
        return longest

    def latest_timeout(self, arc: Arc) -> int:
        """The latest final timeout across all hashlocks on ``arc``."""
        return max(self.final_timeouts(arc[1]))

    def phase_two_bound(self) -> int:
        """Theorem 4.7's bound: all triggers by ``start + 2·diam·Δ``.

        With nonzero slack the bound loosens accordingly.
        """
        return self.start_time + (2 * self.diam + self.timeout_slack) * self.delta

    # -- path validation (Fig. 5 line 30) --------------------------------------------

    def is_valid_hashkey_path(
        self, path: tuple[Vertex, ...], lock_index: int, counterparty: Vertex
    ) -> bool:
        """Check ``p`` runs from the counterparty to the lock's leader in D.

        With the broadcast optimisation enabled, the logical direct arc
        ``(counterparty, leader)`` is also accepted (§4.5).
        """
        if not path:
            return False
        if path[0] != counterparty:
            return False
        if path[-1] != self.leader_of_lock(lock_index):
            return False
        if self.digraph.is_path(path):
            return True
        if (
            self.broadcast_unlock_enabled
            and len(path) == 2
            and self.digraph.has_vertex(path[0])
        ):
            # Logical arc from any party straight to the leader.
            return True
        return False

    # -- the contracts' copy (Fig. 4) ------------------------------------------------

    def shared_contract_view(self) -> dict[str, Any]:
        """The members every swap contract's state view copies from this
        spec: the hashlock vector (hex), the leader vector, ``T``, ``Δ``,
        ``diam(D)`` and the timeout slack.  A fresh dict each call."""
        return {
            "hashlocks": [h.hex() for h in self.hashlocks],
            "leaders": list(self.leaders),
            "start_time": self.start_time,
            "delta": self.delta,
            "diam": self.diam,
            "timeout_slack": self.timeout_slack,
        }

    def shared_view_size(self) -> int:
        """Encoded bytes of :meth:`shared_contract_view`'s values (its
        keys and frame excluded), measured with the ledger's encoder
        once per spec: all ``|A|`` contracts of the swap share them."""
        size = self._shared_view_size
        if size is None:
            view = self.shared_contract_view()
            size = self._shared_view_size = encoded_size(view) - object_frame(*view)
        return size

    # -- storage accounting -------------------------------------------------------------

    def stored_fields_size_bytes(self) -> int:
        """Bytes one contract stores for its copy of the spec-derived state.

        Fig. 4's long-lived fields: the digraph, the leader vector, the
        hashlock vector, and the timelock vector (one final timeout per
        lock), plus the scalar timing fields.  Computed once per spec.
        """
        size = self._stored_fields_size
        if size is None:
            size = self._stored_fields_size = stored_fields_size(self.digraph, self.leaders)
        return size


def stored_fields_size(digraph: Digraph, leaders: tuple[Vertex, ...]) -> int:
    """Fig. 4's long-lived per-contract fields for a swap on ``digraph``
    led by ``leaders`` (Theorem 4.10's accounting): one digraph copy,
    the leader vector, one 32-byte hashlock and one 8-byte timelock per
    leader, and four 8-byte timing scalars (start, Δ, diam, slack)."""
    return (
        digraph.encoded_size_bytes()
        + sum(len(leader.encode()) for leader in leaders)
        + (32 + 8) * len(leaders)
        + 8 * 4
    )


# ---------------------------------------------------------------------------
# The spec a scenario publishes
# ---------------------------------------------------------------------------
#
# A run's scenario (a :class:`repro.api.scenario.Scenario`, read by field:
# ``repro.core`` does not import ``repro.api``) may leave the leader
# vector, the start time and ``diam`` unset.  The simulator
# (:class:`repro.core.protocol.SwapSimulation`) and the closed form
# (:mod:`repro.analysis.predict`) resolve them with these functions alone.


def resolve_leaders(scenario: Any, digraph: Digraph) -> tuple[Vertex, ...]:
    """The leader vector ``L``: the scenario's own, else a feedback
    vertex set of ``digraph`` in vertex order."""
    if scenario.leaders is not None:
        return tuple(scenario.leaders)
    chosen = feedback_vertex_set(digraph, exact_limit=scenario.exact_limit)
    return tuple(v for v in digraph.vertices if v in chosen)


def resolve_start(scenario: Any) -> int:
    """The starting time ``T``: ``start_time``, else Δ (§4.2: "at least
    Δ in the future")."""
    return scenario.start_time if scenario.start_time is not None else scenario.delta


def resolve_diam(scenario: Any, digraph: Digraph) -> int:
    """The published ``diam``: ``diam_override`` when set (safe if at
    least the true diameter), else ``diam(D)``."""
    if scenario.diam_override is not None:
        return scenario.diam_override
    return diameter(digraph, exact_limit=scenario.exact_limit)


def leader_secret(seed: int, leader: Vertex) -> bytes:
    """The secret ``leader`` locks its hashlock with, deterministic in the
    run's seed."""
    return derive_secret("secret", seed, leader)
