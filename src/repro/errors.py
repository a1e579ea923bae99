"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one type to handle any library failure.  Subpackages raise the most
specific subclass that applies; the class names mirror the vocabulary of the
paper (digraphs, contracts, hashkeys, clearing, simulation).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Digraph substrate
# ---------------------------------------------------------------------------


class DigraphError(ReproError):
    """Structural problem with a digraph (bad vertex, bad arc, ...)."""


class NotStronglyConnectedError(DigraphError):
    """A strongly connected digraph was required (Theorem 3.5)."""


class NotFeedbackVertexSetError(DigraphError):
    """The proposed leader set is not a feedback vertex set (Theorem 4.12)."""


# ---------------------------------------------------------------------------
# Crypto substrate
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class SignatureError(CryptoError):
    """Signature creation or verification failed structurally."""


class KeyReuseError(CryptoError):
    """A one-time key (Lamport) was asked to sign a second message."""


class UnknownKeyError(CryptoError):
    """A public key was not recognised by the scheme's registry."""


# ---------------------------------------------------------------------------
# Blockchain substrate
# ---------------------------------------------------------------------------


class LedgerError(ReproError):
    """Base class for ledger failures."""


class TamperError(LedgerError):
    """Hash-chain validation detected a mutated block or record."""


class AssetError(ReproError):
    """Asset ownership or escrow rules were violated."""


class ContractError(ReproError):
    """Base class for smart-contract failures."""


class AuthorizationError(ContractError):
    """A contract function was called by the wrong sender (``require`` fail)."""


class ContractStateError(ContractError):
    """A contract function was called in a state that forbids it."""


# ---------------------------------------------------------------------------
# Core protocol
# ---------------------------------------------------------------------------


class ProtocolError(ReproError):
    """Base class for swap-protocol failures."""


class TimeoutAssignmentError(ProtocolError):
    """No safe timeout assignment exists (Figure 6, cyclic follower case)."""


class InvalidHashkeyError(ContractError):
    """A hashkey failed contract validation (deadline, secret, path, sigs).

    Subclasses :class:`ContractError` so that a rejected ``unlock`` call is
    recorded on-chain as a failed transaction, exactly like any other
    reverted contract call.
    """


class ClearingError(ProtocolError):
    """The market-clearing service rejected the offers or the digraph."""


# ---------------------------------------------------------------------------
# Unified protocol-engine API (repro.api)
# ---------------------------------------------------------------------------


class EngineError(ProtocolError):
    """Base class for failures in the :mod:`repro.api` engine layer."""


class UnknownEngineError(EngineError):
    """No engine is registered under the requested name.

    The message lists every registered engine so typos are self-diagnosing.
    """

    def __init__(self, name: str, registered: tuple[str, ...] | list[str] = ()) -> None:
        self.name = name
        self.registered = tuple(registered)
        known = ", ".join(sorted(self.registered)) or "<none>"
        super().__init__(
            f"unknown engine {name!r}; registered engines: {known}"
        )


class UnknownStrategyError(EngineError):
    """No deviating-party strategy is registered under the requested name."""

    def __init__(self, name: str, registered: tuple[str, ...] | list[str] = ()) -> None:
        self.name = name
        self.registered = tuple(registered)
        known = ", ".join(sorted(self.registered)) or "<none>"
        super().__init__(
            f"unknown strategy {name!r}; registered strategies: {known}"
        )


class ScenarioError(EngineError):
    """A :class:`repro.api.Scenario` asked an engine for something it
    cannot express (e.g. fault plans on a baseline with no crash model)."""


class ExecutionError(EngineError):
    """Misuse of the execution-session lifecycle (stepping a finalised
    session, registering an intervention after the run began, ...)."""


# ---------------------------------------------------------------------------
# Workload lab (repro.lab)
# ---------------------------------------------------------------------------


class LabError(ReproError):
    """Base class for failures in the :mod:`repro.lab` subsystem."""


class StoreError(LabError):
    """A run-store lookup or write could not be honoured (missing key,
    failure record where a report was expected, unusable path)."""


class UnknownWorkloadError(LabError):
    """No topology family, adversary mix, or preset is registered under
    the requested name.

    The message lists the registered names so typos are self-diagnosing.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        registered: tuple[str, ...] | list[str] = (),
    ) -> None:
        self.kind = kind
        self.name = name
        self.registered = tuple(registered)
        known = ", ".join(sorted(self.registered)) or "<none>"
        super().__init__(f"unknown {kind} {name!r}; registered: {known}")


# ---------------------------------------------------------------------------
# Distributed sweep fleet (repro.fleet)
# ---------------------------------------------------------------------------


class FleetError(LabError):
    """Base class for failures in the :mod:`repro.fleet` claim/lease
    work-queue coordination layer."""


class UnsafeFleetStoreError(FleetError):
    """The store path cannot host fleet coordination.

    Fleet workers are concurrent writers sharing one file-backed SQLite
    store (WAL journal + busy timeout + transactional lease table).  A
    ``:memory:`` store is private to one connection in one process, and
    a JSON-lines path is an interchange file, not a store — workers
    would silently lose their runs, so both are refused up front.

    ``path`` and ``backend`` identify the refused store; ``suggestion``
    names the safe alternative (machine-usable for callers that want to
    rewrite the path).
    """

    def __init__(self, path: str, backend: str) -> None:
        self.path = path
        self.backend = backend
        self.suggestion = "use a SQLite store (*.sqlite)"
        super().__init__(
            f"store {path!r} ({backend}) has no concurrent-writer safety "
            f"— parallel fleet workers would corrupt it; {self.suggestion}"
        )


class LeaseLostError(FleetError):
    """A worker's lease on a chunk expired and the chunk was (or may
    have been) re-issued to another claimant.

    The only safe response is to discard the chunk's results without
    committing: the re-claimant will produce identical entries (runs are
    content-addressed and deterministic), and the atomic commit protocol
    guarantees the store never records the same chunk twice.
    """

    def __init__(self, chunk_id: str, worker_id: str, action: str) -> None:
        self.chunk_id = chunk_id
        self.worker_id = worker_id
        super().__init__(
            f"worker {worker_id!r} lost its lease on chunk "
            f"{chunk_id[:12]} before {action}; results must be discarded"
        )


# ---------------------------------------------------------------------------
# Static analysis (repro.analysis.protocol / repro.analysis.lint)
# ---------------------------------------------------------------------------


class AnalysisError(ReproError):
    """Misuse of the static scenario-verifier API (not a finding: the
    verifier reports scenario problems as diagnostics, never raises)."""


class LintError(ReproError):
    """Misuse of the AST lint pass (unknown rule, unreadable source).

    The message lists registered rule names where that helps, matching
    the self-diagnosing convention of the other registries.
    """

    def __init__(self, message: str, registered: tuple[str, ...] | list[str] = ()) -> None:
        self.registered = tuple(registered)
        if self.registered:
            message += f"; registered rules: {', '.join(sorted(self.registered))}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Swap service (repro.serve)
# ---------------------------------------------------------------------------


class ServeError(ReproError):
    """Base class for failures in the :mod:`repro.serve` daemon layer."""


class WireError(ServeError):
    """A wire-format payload (milestone event, submission body) did not
    match the service's JSON schema."""


class AdmissionError(ServeError):
    """The service refused a submission — admission queue full or the
    client's token bucket is empty.

    ``retry_after`` is the advisory back-off in seconds (the HTTP layer
    maps it to a 429 with a ``Retry-After`` header); ``reason`` is
    ``"queue-full"`` or ``"rate-limited"``.
    """

    def __init__(self, reason: str, retry_after: float, detail: str = "") -> None:
        self.reason = reason
        self.retry_after = retry_after
        message = f"submission rejected ({reason}); retry after {retry_after:.2f}s"
        if detail:
            message += f": {detail}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Simulation substrate
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class SchedulerError(SimulationError):
    """An event was scheduled in the past, the event budget ran out, or
    the scheduler was re-entered from a firing event."""


class TimingError(SimulationError):
    """A timing model was malformed (unknown kind, bad params, or a
    profile that contradicts the model's own conformity contract)."""
