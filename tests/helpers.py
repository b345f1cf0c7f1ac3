"""Shared fixtures-by-hand for the unit suites."""

from __future__ import annotations

from ndnshield.crypto import KeyPair, sign_packet
from ndnshield.packets import Name, parse_name
from ndnshield.rand import Rng
from ndnshield.router import Router
from ndnshield.simnet import IfaceInfo

_KEYS: dict[str, KeyPair] = {}


def make_key(label: str = "k") -> KeyPair:
    if label not in _KEYS:
        _KEYS[label] = KeyPair.generate(Rng(99, f"testkey:{label}"))
    return _KEYS[label]


def make_packet(name: str, key: KeyPair | None = None, payload: bytes = b"data"):
    return sign_packet(parse_name(name), payload, key or make_key())


def iface_info(iface: int, bandwidth: float = 1e8) -> IfaceInfo:
    return IfaceInfo(iface=iface, bandwidth_bps=bandwidth, link_key=bytes([iface]) * 32)


def record_sends(router: Router) -> Router:
    """Replace the router's `emit` with one that appends each (iface, pkt)
    it is given to `router.sent`."""
    router.sent = []
    router.emit = lambda iface, pkt: router.sent.append((iface, pkt))
    return router


def make_router(n_ifaces: int = 3, **kwargs) -> Router:
    router = record_sends(Router("r", **kwargs))
    for i in range(n_ifaces):
        router.attach_iface(iface_info(i))
    return router


def n(text: str) -> Name:
    return parse_name(text)
