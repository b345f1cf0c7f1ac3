"""Content-poisoning countermeasures.

Routers enforce the two self-certifying clauses of the matching predicate
(trailing content hash for static content, publisher key digest for
dynamic content), sample cached packets for real signature verification
under one of three strategies, gossip one-hop authenticated warnings when
a cached packet turns out corrupted, and track a per-entry trust value
fed by scope-limited consumer feedback.
"""

from __future__ import annotations

import math
from collections import deque
from operator import attrgetter
from typing import Annotated, Optional

from .crypto import (
    hmac_sha256,
    link_mac_ok,
    ls32,
    verify_signature,
    with_link_mac,
)
from .packets import (
    FEEDBACK_PREFIX,
    MS,
    WARNING_PREFIX,
    DataPacket,
    EmbeddedKey,
    Interest,
    content_hash_matches,
    control_interest,
)
from .schema import AtMost, Factory, Invalid, NonNegative, OneOf, Positive, Record

MODE_OFF = "off"
MODE_INDEPENDENT = "independent"
MODE_DISJOINT_PLAIN = "disjoint-plain"
MODE_DISJOINT_HMAC = "disjoint-hmac"

VERIFIER_MODES = (MODE_OFF, MODE_INDEPENDENT, MODE_DISJOINT_PLAIN, MODE_DISJOINT_HMAC)


def coverage_probability(mode: str, n: int, v: list[float]) -> float:
    """Probability that at least one of n routers checks a packet held in
    all their caches, with per-router sampling denominators v."""
    if len(v) != n or n < 1:
        raise ValueError("need one sampling denominator per router")
    if mode == MODE_INDEPENDENT:
        if any(vi < 1 for vi in v):
            raise ValueError("independent mode requires v >= 1")
        return 1.0 - math.prod(1.0 - 1.0 / vi for vi in v)
    if mode in (MODE_DISJOINT_PLAIN, MODE_DISJOINT_HMAC):
        # The published expression is only a probability when every v_i >= n;
        # smaller denominators are rejected rather than silently clamped.
        if any(vi < n for vi in v):
            raise ValueError("disjoint modes require v >= n for every router")
        return 1.0 - math.prod(1.0 - n / vi for vi in v)
    raise ValueError(f"unknown verification mode {mode!r}")


def disjoint_residue(mode: str, content_hash: bytes, group_key: bytes, n: int) -> int:
    """Which group member a content hash lands on under disjoint assignment."""
    if mode == MODE_DISJOINT_PLAIN:
        return ls32(content_hash) % n
    if mode == MODE_DISJOINT_HMAC:
        return ls32(hmac_sha256(group_key, content_hash)) % n
    raise ValueError("residues apply to disjoint modes only")


class VerifierConfig(Record):
    mode: Annotated[str, OneOf(*VERIFIER_MODES)] = MODE_OFF
    v: float = 1.0
    group: tuple[str, ...] = ()
    group_key: bytes = b""
    scan_interval_ms: Annotated[int, Positive] = 1000

    def __post_init__(self):
        if self.mode == MODE_INDEPENDENT and self.v < 1:
            raise Invalid("v", "independent mode requires v >= 1")
        if self.mode in (MODE_DISJOINT_PLAIN, MODE_DISJOINT_HMAC):
            if not self.group:
                raise Invalid("group", "disjoint modes require a router group")
            if self.v < len(self.group):
                raise Invalid("v", "disjoint modes require v >= group size")
            if self.mode == MODE_DISJOINT_HMAC and not self.group_key:
                raise ValueError("keyed mode requires a shared group key")


UnitInterval = Annotated[float, NonNegative, AtMost(1)]  # a value in [0, 1]


class NeighborFeedbackConfig(Record):
    enabled: bool = False
    p: UnitInterval = 0.5  # probability of acting on a received warning
    cooldown_ms: Annotated[int, NonNegative] = 10_000


class ConsumerFeedbackConfig(Record):
    enabled: bool = False
    alpha: UnitInterval = 0.05  # trust gain per positive retrieval
    beta: UnitInterval = 0.5  # trust multiplier per negative report
    threshold: Annotated[int, Positive] = 3  # distinct reports within window forcing verification
    window_ms: Annotated[int, Positive] = 10_000


class PoisoningConfig(Record):
    enforce_dscid: bool = False
    enforce_sscid: bool = False
    verifier: VerifierConfig = Factory(VerifierConfig)
    neighbor: NeighborFeedbackConfig = Factory(NeighborFeedbackConfig)
    consumer: ConsumerFeedbackConfig = Factory(ConsumerFeedbackConfig)
    verify_service_us: Annotated[int, NonNegative] = 80


class PoisoningGuard:
    """Per-router poisoning defense state; bound to its router at creation."""

    def __init__(self, config: PoisoningConfig, rng):
        self.config = config
        self.rng = rng
        self.router = None
        self._inflight: set[bytes] = set()
        self._suppressed: dict[tuple[int, bytes], int] = {}  # (iface, hash) -> until
        self._negative_reports: dict[bytes, deque[int]] = {}

    def bind(self, router) -> None:
        self.router = router

    # -- self-certifying admission ------------------------------------------

    def scid_check(self, data: DataPacket, interest: Interest) -> Optional[str]:
        """None to pass, otherwise the counter column of the clause that
        rejects the packet. Neither check verifies a signature; both are
        hash comparisons: a publisher key digest the interest requests
        must be the data's, and so must a content hash its name ends in."""
        config = self.config
        if config.enforce_dscid:
            wanted = interest.publisher_key_digest
            if wanted is not None and wanted != data.publisher_key_digest:
                return "drop_scid_d"
        if config.enforce_sscid and not content_hash_matches(data, interest):
            return "drop_scid_s"
        return None

    # -- sampling selection -----------------------------------------------------

    def _group_index(self) -> int:
        return self.config.verifier.group.index(self.router.id)

    def _trust_factor(self, trust: float) -> float:
        """Feedback-driven scaling: selection probability proportional to
        1 - T, normalised so the initial trust of 0.5 keeps the base rate."""
        if not self.config.consumer.enabled:
            return 1.0
        return 2.0 * (1.0 - trust)

    def select_for_verification(self, entry) -> bool:
        """Whether to verify a cached entry now. Under disjoint assignment
        only the group member its residue names draws; the residue is a
        pure function of the entry's hash, so it is worked out once per
        entry and kept on it."""
        cfg = self.config.verifier
        if cfg.mode == MODE_OFF:
            return False
        if cfg.mode == MODE_INDEPENDENT:
            prob = (1.0 / cfg.v) * self._trust_factor(entry.trust)
            return self.rng.random() < min(1.0, prob)
        n = len(cfg.group)
        mine = entry.mine
        if mine is None:
            residue = disjoint_residue(cfg.mode, entry.content_hash, cfg.group_key, n)
            mine = entry.mine = residue == self._group_index()
        if not mine:
            return False
        prob = (n / cfg.v) * self._trust_factor(entry.trust)
        return self.rng.random() < min(1.0, prob)

    # -- verification lifecycle ----------------------------------------------------

    def on_inserted(self, entry, now: int) -> None:
        if entry.verified or entry.content_hash in self._inflight:
            return
        if self.select_for_verification(entry):
            self._schedule_verification(entry.content_hash)

    def scan(self, now: int) -> None:
        """Periodic pass over unverified cached packets, in content-hash
        order; keeps long-lived entries inside the sampling pool.

        The candidates are picked before any is drawn for, and only they
        are sorted. That visits what a walk over every entry would: a
        draw changes `mine` and `_inflight` for its own entry only. An
        entry already known to be another group member's draws nothing,
        so it is passed over without the call."""
        inflight = self._inflight
        candidates = [
            entry for entry in self.router.cs.unordered()
            if not entry.verified and entry.mine is not False
            and entry.content_hash not in inflight
        ]
        candidates.sort(key=attrgetter("content_hash"))
        for entry in candidates:
            if self.select_for_verification(entry):
                self._schedule_verification(entry.content_hash)

    def force_verification(self, content_hash: bytes) -> None:
        if content_hash not in self._inflight:
            self._schedule_verification(content_hash)

    def _schedule_verification(self, content_hash: bytes, on_valid=None) -> None:
        self._inflight.add(content_hash)
        self.router.after(
            self.config.verify_service_us,
            lambda: self._complete_verification(content_hash, on_valid),
        )

    def _verify_packet(self, packet: DataPacket) -> Optional[bool]:
        """True/False for a definite verdict, None when the designated key
        is not locally available (named keys are content we do not fetch)."""
        if isinstance(packet.key_locator, EmbeddedKey):
            return verify_signature(packet, packet.key_locator.key_der)
        return None

    def _complete_verification(self, content_hash: bytes, on_valid=None) -> None:
        self._inflight.discard(content_hash)
        entry = self.router.cs.get(content_hash)
        if entry is None or entry.verified:
            return
        self.router.stats["verifications"] += 1
        verdict = self._verify_packet(entry.packet)
        if verdict is None:
            self.router.stats["verify_unresolvable"] += 1
            return
        if verdict:
            entry.verified = True
            self.router.cs.set_trust(entry, 1.0)
            if on_valid is not None:
                on_valid()
        else:
            self.router.stats["verify_invalid"] += 1
            self.router.cs.remove(content_hash)
            self._negative_reports.pop(content_hash, None)
            if self.config.neighbor.enabled:
                self._emit_warnings(content_hash)

    # -- neighbour warnings -----------------------------------------------------------

    def _emit_warnings(self, content_hash: bytes) -> None:
        """Warn every neighbour; only the link MAC differs by face."""
        body = WARNING_PREFIX.child(content_hash)  # raw 32-byte digest component
        router = self.router
        for iface in sorted(router.ifaces):
            name = with_link_mac(router.ifaces[iface].link_key, body)
            router.emit(iface, control_interest(name, self.rng.u64()))
            router.stats["warnings_sent"] += 1

    def handle_warning(self, iface: int, interest: Interest, now: int) -> None:
        comps = interest.name.components
        link_key = self.router.ifaces[iface].link_key
        if len(comps) != 4 or len(comps[2]) != 32 or not link_mac_ok(link_key, interest.name):
            self.router.stats["warnings_bad_mac"] += 1
            return
        content_hash = comps[2]
        self.router.stats["warnings_received"] += 1
        until = self._suppressed.get((iface, content_hash))
        if until is not None and now < until:
            self.router.stats["warnings_suppressed"] += 1
            return
        entry = self.router.cs.get(content_hash)
        if entry is None or entry.verified:
            return  # nothing cached (or already known good): discard
        if self.rng.random() < self.config.neighbor.p:
            cooldown = self.config.neighbor.cooldown_ms * MS

            def suppress(iface=iface, h=content_hash):
                self._suppressed[(iface, h)] = now + cooldown

            if content_hash not in self._inflight:
                self._schedule_verification(content_hash, on_valid=suppress)

    # -- consumer feedback ----------------------------------------------------------------

    def on_positive_retrieval(self, entry) -> None:
        if self.config.consumer.enabled and not entry.verified:
            alpha = self.config.consumer.alpha
            self.router.cs.set_trust(entry, min(1.0, entry.trust + alpha * (1.0 - entry.trust)))

    def handle_feedback(self, iface: int, interest: Interest, now: int) -> None:
        comps = interest.name.components
        if len(comps) != 3 or len(comps[2]) != 32:
            return
        if not self.config.consumer.enabled:
            return
        content_hash = comps[2]
        self.router.stats["feedback_received"] += 1
        entry = self.router.cs.get(content_hash)
        if entry is None or entry.verified:
            return  # a checked-good packet outranks any consumer report
        self.router.cs.set_trust(entry, max(0.0, entry.trust * self.config.consumer.beta))
        window = self.config.consumer.window_ms * MS
        reports = self._negative_reports.setdefault(content_hash, deque())
        reports.append(now)
        while reports and reports[0] < now - window:
            reports.popleft()
        if len(reports) >= self.config.consumer.threshold and not entry.verified:
            self.force_verification(content_hash)


def feedback_interest(content_hash: bytes, nonce: int) -> Interest:
    """The scope-2 interest a consumer sends after rejecting a packet."""
    return control_interest(FEEDBACK_PREFIX.child(content_hash), nonce)
