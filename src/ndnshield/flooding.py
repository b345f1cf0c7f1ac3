"""Interest-flooding countermeasures.

Three statistical limiters plus a hop-by-hop push-back protocol:

* per-egress quota:   never keep more interests pending on an interface
                      than its link can answer before they time out;
* per-ingress limit:  the mirror bound for what a downstream link owes us;
* namespace quota:    a hard cap on pending interests per configured
                       prefix, refined by a per-ingress admission fraction
                       driven by each ingress's recent satisfaction ratio.

When the namespace quota trips, the router advises its offending
neighbours of a sustainable rate; they install a per-ingress token-bucket
cap and push the advice further toward the sources.

The composition of the limiters (rejection order, window length, clamp
floor, cooldown, TTL, fair-share rule) is this artifact's own. The window,
clamp floor, cooldown and TTL are configuration knobs; the anomaly
threshold, the cap's burst depth, the fair-share factor and the floor of
advised rates are module constants.

Inside the defense a namespace is the tuple of its prefix's components,
which hashes in C; `Name` appears only where a prefix enters or leaves:
the configuration, push-back messages and `rate_caps()`.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from typing import Annotated, Optional

from .crypto import link_mac_ok, with_link_mac
from .packets import INTEREST_LIFETIME_MS, MS, PUSHBACK_PREFIX, Interest, Name, control_interest
from .schema import Factory, NonNegative, Positive, Record

# Rejection reasons, each the name of the counter column it is counted in.
REJ_EGRESS_QUOTA = "rej_egress-quota"
REJ_INGRESS_LIMIT = "rej_ingress-limit"
REJ_NAMESPACE_QUOTA = "rej_namespace-quota"
REJ_THROTTLED = "rej_throttled"
REJ_RATE_CAP = "rej_rate-cap"

# An ingress is anomalous while its satisfaction ratio sits below this.
# Throttling and rate caps bind only on anomalous ingresses; a healthy
# ingress always admits at fraction 1.0. Without the dead zone, every
# throttled interest expires upstream and re-depresses the very ratio
# that caused the throttling.
ANOMALY_RATIO = 0.5
CAP_BURST_S = 1.0  # token bucket depth, in seconds of advised rate
FAIR_SHARE_FACTOR = 2.0  # an offender's count exceeds this times its peers' mean
MIN_ADVISED_RATE = 1.0  # interests/s floor for push-back advice

Prefix = tuple[bytes, ...]  # a namespace, as its prefix's name components


def compute_outgoing_quota(
    bandwidth_bps: float, avg_content_size_bytes: int, interest_timeout_s: float
) -> int:
    """Most data packets the link can return before pending interests expire."""
    if bandwidth_bps <= 0 or avg_content_size_bytes <= 0 or interest_timeout_s <= 0:
        raise ValueError("quota inputs must be positive")
    quota = math.ceil(bandwidth_bps * interest_timeout_s / (avg_content_size_bytes * 8))
    return max(1, quota)


class FloodingConfig(Record):
    namespace_quotas: dict[Name, Annotated[int, Positive]] = Factory(dict)
    # Prefixes tracked for throttling and push-back even where no hard
    # quota is enforced (quota keys are always watched).
    watched_prefixes: tuple[Name, ...] = ()
    window_ms: Annotated[int, Positive] = 10_000
    min_throttle: Annotated[float, NonNegative] = 0.05
    pushback_cooldown_ms: Annotated[int, NonNegative] = 1000
    pushback_ttl: Annotated[int, Positive] = 8
    interest_timeout_ms: Annotated[int, Positive] = INTEREST_LIFETIME_MS
    avg_content_size_bytes: Annotated[int, Positive] = 1500
    outgoing_quota_override: Optional[Annotated[int, Positive]] = None
    incoming_limit_override: Optional[Annotated[int, Positive]] = None


class TokenBucket:
    """Token bucket over simulated time with probabilistic admission in the
    fractional-token regime. The soft edge matters: two deterministic
    buckets at equal rates on adjacent routers phase-lock, and whichever
    flow is paced to the refill period then captures every token. Partial
    tokens instead admit with matching probability, so competing flows
    share the rate in proportion to their arrival share. Draws come from
    the caller's seeded stream; behavior stays reproducible."""

    def __init__(self, rate_per_s: float, burst: float, now: int):
        self.rate = rate_per_s
        self.base_rate = rate_per_s
        self.burst = max(1.0, burst)
        self.tokens = self.burst
        self.last = now

    def refill(self, now: int) -> None:
        self.tokens = min(self.burst, self.tokens + self.rate * (now - self.last) / 1e6)
        self.last = now

    def take(self, now: int, rng, rate_per_s: float) -> bool:
        """Refill at the old rate up to `now`, then take a token at `rate_per_s`."""
        self.refill(now)
        self.rate = rate_per_s
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        p = max(0.0, self.tokens)
        if p > 0.0 and rng.random() < p:
            self.tokens -= 1.0
            return True
        return False


class _Window:
    """Per-(prefix, ingress) counts of resolved interests over a sliding
    window; 'forwarded' here means resolved (satisfied or expired), so
    in-flight interests do not count against an ingress."""

    def __init__(self, window_us: int):
        self.window_us = window_us
        self.events: deque[tuple[int, bool]] = deque()  # (time, satisfied?)
        self.satisfied = 0
        self.resolved = 0

    def add(self, now: int, satisfied: bool) -> None:
        self.events.append((now, satisfied))
        self.resolved += 1
        if satisfied:
            self.satisfied += 1
        self.prune(now)

    def prune(self, now: int) -> None:
        cutoff = now - self.window_us
        while self.events and self.events[0][0] < cutoff:
            _, sat = self.events.popleft()
            self.resolved -= 1
            if sat:
                self.satisfied -= 1


class FloodingDefense:
    """Admission state for one router; bound to it at construction."""

    def __init__(self, config: FloodingConfig, rng):
        self.config = config
        self.rng = rng
        self.router = None
        # Components of every watched prefix, longest first.
        self._watched: list[Prefix] = [
            prefix.components
            for prefix in sorted(
                set(config.watched_prefixes) | set(config.namespace_quotas),
                key=lambda prefix: (-len(prefix), str(prefix)),
            )
        ]
        self._quotas: dict[Prefix, int] = {
            prefix.components: quota for prefix, quota in config.namespace_quotas.items()
        }
        self.pending_out: dict[int, int] = defaultdict(int)
        self.pending_in: dict[int, int] = defaultdict(int)
        self.ns_pending: dict[Prefix, int] = defaultdict(int)
        # Pending attribution per (namespace, ingress): lets push-back name
        # its offenders immediately instead of waiting a lifetime for the
        # first expiries to surface.
        self.ns_pending_in: dict[tuple[Prefix, int], int] = defaultdict(int)
        self.quota_out: dict[int, int] = {}
        self.limit_in: dict[int, int] = {}
        self._windows: dict[tuple[Prefix, int], _Window] = {}
        self._caps: dict[tuple[Prefix, int], TokenBucket] = {}
        self._quota_hit_at: dict[Prefix, int] = {}
        self._last_pushback: dict[tuple[Prefix, int], int] = {}

    def bind(self, router) -> None:
        self.router = router

    def on_iface_attached(self, info) -> None:
        quota = self.config.outgoing_quota_override or compute_outgoing_quota(
            info.bandwidth_bps,
            self.config.avg_content_size_bytes,
            self.config.interest_timeout_ms / 1000.0,
        )
        self.quota_out[info.iface] = quota
        self.limit_in[info.iface] = self.config.incoming_limit_override or quota

    # -- bookkeeping ---------------------------------------------------------

    def _namespace(self, name: Name) -> Optional[Prefix]:
        """The components of the longest watched prefix of the name."""
        comps = name.components
        for prefix in self._watched:
            if comps[: len(prefix)] == prefix:
                return prefix
        return None

    def _window(self, ns: Prefix, iface: int) -> _Window:
        key = (ns, iface)
        win = self._windows.get(key)
        if win is None:
            win = _Window(self.config.window_ms * MS)
            self._windows[key] = win
        return win

    def note_forwarded(self, entry, now: int) -> None:
        for iface in entry.outgoing:
            self.pending_out[iface] += 1
        for iface in entry.incoming:
            self.pending_in[iface] += 1
        ns = entry.namespace = self._namespace(entry.name)
        if ns is not None:
            self.ns_pending[ns] += 1
            for iface in entry.incoming:
                self.ns_pending_in[(ns, iface)] += 1

    def note_collapsed(self, entry, iface: int, now: int) -> None:
        self.pending_in[iface] += 1
        ns = entry.namespace
        if ns is not None:
            self.ns_pending_in[(ns, iface)] += 1

    def _resolve(self, entry, now: int, satisfied: bool) -> None:
        # Each count taken down here was put up for this entry when it was
        # forwarded or collapsed, so it is positive.
        for iface in entry.outgoing:
            assert self.pending_out[iface] > 0, ("pending_out", iface)
            self.pending_out[iface] -= 1
        for iface in entry.incoming:
            assert self.pending_in[iface] > 0, ("pending_in", iface)
            self.pending_in[iface] -= 1
        ns = entry.namespace
        if ns is not None:
            assert self.ns_pending[ns] > 0, ("ns_pending", ns)
            self.ns_pending[ns] -= 1
            for iface in entry.incoming:
                key = (ns, iface)
                assert self.ns_pending_in[key] > 0, ("ns_pending_in", key)
                self.ns_pending_in[key] -= 1
                self._window(ns, iface).add(now, satisfied)

    def note_satisfied(self, entry, now: int) -> None:
        self._resolve(entry, now, satisfied=True)

    def note_expired(self, entry, now: int) -> None:
        self._resolve(entry, now, satisfied=False)

    # -- admission -------------------------------------------------------------

    def throttle_fraction(self, ns: Prefix, iface: int, now: int) -> float:
        """Admission fraction for an ingress: 1.0 while healthy, the clamped
        satisfaction ratio once the ingress turns anomalous."""
        ratio = self._ingress_ratio(ns, iface, now)
        if ratio is None or ratio >= ANOMALY_RATIO:
            return 1.0
        return max(self.config.min_throttle, ratio)

    def admit(
        self, ingress: int, interest: Interest, candidates: list[int], now: int
    ) -> tuple[list[int], Optional[str]]:
        """Filter candidate egresses; an empty result carries a reason, the
        counter column the rejection is counted in."""
        usable = [i for i in candidates if self.pending_out[i] < self.quota_out.get(i, 1 << 30)]
        if not usable:
            return [], REJ_EGRESS_QUOTA
        if self.pending_in[ingress] >= self.limit_in.get(ingress, 1 << 30):
            return [], REJ_INGRESS_LIMIT
        ns = self._namespace(interest.name)
        if ns is not None:
            quota = self._quotas.get(ns)
            if quota is not None:
                if self.ns_pending[ns] >= quota:
                    self._quota_hit_at[ns] = now
                    return [], REJ_NAMESPACE_QUOTA
                # The per-ingress throttle protects the quota; where no
                # quota is enforced it would only compound losses for
                # honest traffic sharing a path with the attack.
                frac = self.throttle_fraction(ns, ingress, now)
                if frac < 1.0 and self.rng.random() >= frac:
                    return [], REJ_THROTTLED
        cap = self._matching_cap(interest.name, ingress)
        if cap is not None:
            # An installed cap binds until the ingress proves itself
            # healthy: a recent record dominated by satisfied interests
            # lifts it. A binding cap admits at the advised rate scaled by
            # the ingress's own satisfaction evidence, so a provably useless
            # ingress leaks only the floor fraction of the advice; with no
            # statistics, nothing exonerates the ingress.
            ratio = self._ingress_ratio(ns, ingress, now)
            if ratio is None or ratio < ANOMALY_RATIO:
                evidence = 0.0 if ratio is None else ratio
                rate = cap.base_rate * max(self.config.min_throttle, evidence)
                if not cap.take(now, rng=self.rng, rate_per_s=rate):
                    return [], REJ_RATE_CAP
        return usable, None

    def _ingress_ratio(self, ns: Optional[Prefix], ingress: int, now: int) -> Optional[float]:
        """The satisfied share of what the ingress resolved in the window
        of the namespace, or None without statistics."""
        if ns is None:
            return None
        win = self._windows.get((ns, ingress))
        if win is None:
            return None
        win.prune(now)
        if win.resolved == 0:
            return None
        return win.satisfied / win.resolved

    def _matching_cap(self, name: Name, ingress: int) -> Optional[TokenBucket]:
        comps = name.components
        best = None
        best_len = -1
        for (prefix, iface), bucket in self._caps.items():
            if iface == ingress and comps[: len(prefix)] == prefix and len(prefix) > best_len:
                best, best_len = bucket, len(prefix)
        return best

    # -- push-back ---------------------------------------------------------------

    def _offending_ingresses(self, ns: Prefix, now: int) -> list[int]:
        """Ingresses whose unresolved-plus-expired volume dwarfs their
        peers'. Pending counts make attribution immediate; window expiries
        keep it honest over time.

        A sole contributor is the offender by definition; otherwise an
        ingress offends when its count exceeds `FAIR_SHARE_FACTOR` times
        the mean of the other contributors.
        """
        counts: dict[int, int] = {}
        for (prefix, iface), win in self._windows.items():
            if prefix != ns:
                continue
            win.prune(now)
            unsatisfied = win.resolved - win.satisfied
            if unsatisfied > 0:
                counts[iface] = counts.get(iface, 0) + unsatisfied
        for (prefix, iface), pending in self.ns_pending_in.items():
            if prefix == ns and pending > 0:
                counts[iface] = counts.get(iface, 0) + pending
        if not counts:
            return []
        if len(counts) == 1:
            return list(counts)
        offenders = []
        for iface in sorted(counts):
            others = [c for i, c in counts.items() if i != iface]
            if counts[iface] > FAIR_SHARE_FACTOR * (sum(others) / len(others)):
                offenders.append(iface)
        return offenders

    def _advised_rate(self, ns: Prefix, now: int) -> float:
        """Rate advice carried by push-back: the recently satisfied rate,
        floored by what the namespace quota can absorb per interest
        lifetime. Without the sustainability floor, a fully starved
        namespace would advise (almost) zero and deadlock honest traffic
        sharing the capped ingress."""
        total = 0
        for (prefix, _), win in self._windows.items():
            if prefix == ns:
                win.prune(now)
                total += win.satisfied
        satisfied_rate = total / (self.config.window_ms / 1000.0)
        quota = self._quotas.get(ns)
        sustainable = (
            quota / (self.config.interest_timeout_ms / 1000.0) if quota is not None else 0.0
        )
        return max(MIN_ADVISED_RATE, sustainable, satisfied_rate)

    def build_pushback(self, prefix: Name, rate_per_s: float, ttl: int, iface: int) -> Interest:
        rate_milli = int(round(rate_per_s * 1000))
        body = PUSHBACK_PREFIX.join(prefix).child(b"%d" % rate_milli).child(b"%d" % ttl)
        name = with_link_mac(self.router.ifaces[iface].link_key, body)
        return control_interest(name, self.rng.u64())

    @staticmethod
    def parse_pushback(interest: Interest) -> tuple[Name, float, int]:
        comps = interest.name.components
        if len(comps) < 6:
            raise ValueError("malformed push-back name")
        prefix = Name(comps[2:-3])
        rate = int(comps[-3]) / 1000.0
        ttl = int(comps[-2])
        return prefix, rate, ttl

    def on_expiry_feedback(self, now: int) -> list[tuple[int, Interest]]:
        """Emit push-back toward offenders for namespaces whose quota tripped
        within the statistics window (offender attribution needs expiry
        evidence, which lags a full interest lifetime behind the first hit);
        emission is rate-limited per (prefix, ingress) by the cooldown."""
        out: list[tuple[int, Interest]] = []
        cooldown = self.config.pushback_cooldown_ms * MS
        # In the order of the prefixes' textual names, which is not their
        # components' byte order: '/a%2F' sorts before '/a/b' as text.
        for prefix in sorted(map(Name, self._quota_hit_at), key=str):
            ns = prefix.components
            if now - self._quota_hit_at[ns] > self.config.window_ms * MS:
                continue
            advised = self._advised_rate(ns, now)
            for iface in self._offending_ingresses(ns, now):
                last = self._last_pushback.get((ns, iface))
                if last is not None and now - last < cooldown:
                    continue
                self._last_pushback[(ns, iface)] = now
                out.append(
                    (iface, self.build_pushback(prefix, advised, self.config.pushback_ttl, iface))
                )
        return out

    def handle_pushback(self, iface: int, interest: Interest, now: int) -> list[tuple[int, Interest]]:
        """Verify, install a cap against our own offenders, and propagate."""
        try:
            prefix, rate, ttl = self.parse_pushback(interest)
        except (ValueError, IndexError):
            self.router.stats["pushback_bad_mac"] += 1
            return []
        if not link_mac_ok(self.router.ifaces[iface].link_key, interest.name):
            self.router.stats["pushback_bad_mac"] += 1
            return []
        if ttl <= 0:
            return []
        self.router.stats["pushback_received"] += 1
        out: list[tuple[int, Interest]] = []
        cooldown = self.config.pushback_cooldown_ms * MS
        ns = prefix.components
        for offender in self._offending_ingresses(ns, now):
            if offender == iface:
                continue
            self._caps[(ns, offender)] = TokenBucket(rate, rate * CAP_BURST_S, now)
            last = self._last_pushback.get((ns, offender))
            if ttl > 1 and (last is None or now - last >= cooldown):
                self._last_pushback[(ns, offender)] = now
                out.append((offender, self.build_pushback(prefix, rate, ttl - 1, offender)))
        return out

    # -- introspection -------------------------------------------------------------

    def rate_caps(self) -> dict[tuple[Name, int], float]:
        return {(Name(ns), iface): bucket.rate for (ns, iface), bucket in self._caps.items()}
