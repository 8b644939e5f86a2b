"""Deterministic fault injection for the simulated market.

A real marketplace endpoint times out, throttles, drops connections, and
occasionally delivers the same response twice — and because every call
costs money (``price = p * ceil(rows / t)``), those failures are a
*billing* concern, not just a latency one.  :class:`FaultPolicy` injects
exactly those failure modes into the transport layer
(:mod:`repro.market.transport`), deterministically:

* every decision is a pure function of ``(seed, call key, attempt)`` via a
  keyed hash, so a chaos run replays bit-identically from the same seed —
  however an access's calls interleave on the event loop, and whichever
  serving session issues them;
* ``max_consecutive_faults`` caps how many attempts in a row one call can
  fail, so a transport configured with at least that many retries is
  *guaranteed* to succeed eventually — which is what lets the chaos suite
  assert exact billing invariance instead of a probabilistic one.

Fault kinds and their money semantics:

=====================  ====================================================
``TIMEOUT``            connection died before the server worked: no charge.
``SERVER_ERROR``       5xx before billing: no charge.
``THROTTLE``           429 with ``Retry-After``: no charge, forced wait.
``DROPPED_RESPONSE``   the server worked and **billed**, the response was
                       lost in transit — the dangerous one: a naive retry
                       double-bills; an idempotency-keyed retry replays the
                       stored response for free.
=====================  ====================================================

Duplicate delivery is decided independently of the failure draw: a
successful call may additionally arrive twice, exercising the receiver's
idempotent-recording path.

Latency composition: the policy only *adds* simulated wall-clock on top of
the market's :class:`~repro.market.latency.LatencyModel` (``timeout_ms``
waiting on a dead call, ``retry_after_ms`` honouring a throttle); the
latency of calls that do reach the server still comes from the market.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

from repro.errors import MarketError, TransportError


class FaultKind(enum.Enum):
    """What the injected network did to one attempt of one call."""

    OK = "ok"
    TIMEOUT = "timeout"
    SERVER_ERROR = "server_error"
    THROTTLE = "throttle"
    DROPPED_RESPONSE = "dropped_response"


class InjectedFault(TransportError):
    """One injected transient failure (the transport catches and retries).

    ``kind`` is the :class:`FaultKind`; ``retry_after_ms`` is set for
    throttles (the server's mandated wait); ``billed`` is True when the
    fault struck *after* the server billed the attempt.
    """

    def __init__(
        self,
        kind: FaultKind,
        message: str,
        retry_after_ms: float = 0.0,
        billed: bool = False,
    ):
        super().__init__(message)
        self.kind = kind
        self.retry_after_ms = retry_after_ms
        self.billed = billed


def _unit(seed: int, salt: str, call_key: str, attempt: int) -> float:
    """A deterministic draw in ``[0, 1)`` keyed on the full call identity."""
    payload = f"{seed}|{salt}|{call_key}|{attempt}".encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass(frozen=True)
class FaultPolicy:
    """A seeded, deterministic description of how the network misbehaves.

    Rates are per-attempt probabilities; the four failure rates must sum to
    at most 1.  ``duplicate_rate`` is drawn independently and only applies
    to attempts that deliver successfully.
    """

    seed: int = 0
    timeout_rate: float = 0.0
    error_rate: float = 0.0
    throttle_rate: float = 0.0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    #: Simulated wall-clock lost waiting on a call that will never answer.
    timeout_ms: float = 1000.0
    #: The wait a 429 response mandates before the next attempt.
    retry_after_ms: float = 250.0
    #: Hard cap on how many attempts in a row one call can fail (``None``
    #: disables the cap — calls can then fail forever at rate 1.0).  With
    #: the cap, a transport allowing ``max_consecutive_faults`` retries is
    #: guaranteed eventual success: the basis of exact billing-invariance
    #: assertions under chaos.
    max_consecutive_faults: int | None = 3

    def __post_init__(self) -> None:
        rates = {
            "timeout_rate": self.timeout_rate,
            "error_rate": self.error_rate,
            "throttle_rate": self.throttle_rate,
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise MarketError(f"{name} must be in [0, 1], got {rate!r}")
        total = (
            self.timeout_rate
            + self.error_rate
            + self.throttle_rate
            + self.drop_rate
        )
        if total > 1.0 + 1e-9:
            raise MarketError(
                f"failure rates sum to {total:g}; must not exceed 1"
            )
        if self.timeout_ms < 0 or self.retry_after_ms < 0:
            raise MarketError("fault wait times cannot be negative")
        if (
            self.max_consecutive_faults is not None
            and self.max_consecutive_faults < 0
        ):
            raise MarketError("max_consecutive_faults cannot be negative")

    @classmethod
    def uniform(cls, seed: int, rate: float, **kwargs) -> "FaultPolicy":
        """Spread one overall failure ``rate`` evenly over the four failure
        kinds, with duplicate delivery at the same per-kind rate."""
        if not 0.0 <= rate <= 1.0:
            raise MarketError(f"fault rate must be in [0, 1], got {rate!r}")
        quarter = rate / 4.0
        return cls(
            seed=seed,
            timeout_rate=quarter,
            error_rate=quarter,
            throttle_rate=quarter,
            drop_rate=quarter,
            duplicate_rate=quarter,
            **kwargs,
        )

    # -- deterministic draws ---------------------------------------------------

    def outcome(self, call_key: str, attempt: int) -> FaultKind:
        """What happens to ``attempt`` (1-based) of the call ``call_key``."""
        if (
            self.max_consecutive_faults is not None
            and attempt > self.max_consecutive_faults
        ):
            return FaultKind.OK
        u = _unit(self.seed, "fault", call_key, attempt)
        threshold = self.timeout_rate
        if u < threshold:
            return FaultKind.TIMEOUT
        threshold += self.error_rate
        if u < threshold:
            return FaultKind.SERVER_ERROR
        threshold += self.throttle_rate
        if u < threshold:
            return FaultKind.THROTTLE
        threshold += self.drop_rate
        if u < threshold:
            return FaultKind.DROPPED_RESPONSE
        return FaultKind.OK

    def duplicated(self, call_key: str, attempt: int) -> bool:
        """Whether a successfully delivered attempt also arrives twice."""
        return (
            _unit(self.seed, "dup", call_key, attempt) < self.duplicate_rate
        )

    def jitter(self, call_key: str, attempt: int) -> float:
        """A deterministic draw in ``[-1, 1]`` for backoff jitter."""
        return 2.0 * _unit(self.seed, "jitter", call_key, attempt) - 1.0

    def fault_for(self, kind: FaultKind, call_key: str) -> InjectedFault:
        """Build the exception the transport sees for a failed attempt."""
        if kind is FaultKind.TIMEOUT:
            return InjectedFault(kind, f"injected timeout on {call_key}")
        if kind is FaultKind.SERVER_ERROR:
            return InjectedFault(
                kind, f"injected 503 Service Unavailable on {call_key}"
            )
        if kind is FaultKind.THROTTLE:
            return InjectedFault(
                kind,
                f"injected 429 Too Many Requests on {call_key} "
                f"(retry after {self.retry_after_ms:g} ms)",
                retry_after_ms=self.retry_after_ms,
            )
        if kind is FaultKind.DROPPED_RESPONSE:
            return InjectedFault(
                kind,
                f"injected response loss on {call_key} (charge already "
                "billed server-side)",
                billed=True,
            )
        raise MarketError(f"{kind} is not a failure kind")
