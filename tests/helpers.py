"""Shared fixtures-by-hand for the unit suites, and a fresh interpreter to
run the CLI or a script in."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from ndnshield.crypto import KeyPair, sign_packet
from ndnshield.packets import Name, parse_name
from ndnshield.rand import Rng
from ndnshield.router import Router
from ndnshield.simnet import IfaceInfo

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "src" / "ndnshield" / "scenarios" / "chain_flood.json"
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


def _in_fresh_interpreter(*argv: str, show: str = "", blocked: str = "", env=None) -> str:
    """The standard output of a fresh interpreter, with `src/` on its path and
    the `env` variables set, that blocks the import of the modules named in
    `blocked`, imports the CLI, runs `argv` (a script's path, or arguments
    of `ndnshield`, which must exit 0) and then prints `show`, if given."""
    run = ("import runpy; runpy.run_path(argv[0], run_name='__main__')"
           if argv and argv[0].endswith(".py") else "assert not (argv and ndnshield.cli.main(argv))")
    code = (f"import sys; sys.modules.update(dict.fromkeys({blocked!r}.split())); "
            f"import ndnshield, ndnshield.experiment, ndnshield.cli; argv = {list(argv)!r}; {run}"
            + (f"; print({show})" if show else ""))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONIOENCODING": "utf-8", "PYTHONPATH": path, **(env or {})}
    env.pop("NDNSHIELD_OUT", None)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          encoding="utf-8")
    assert done.returncode == 0, done.stderr
    return done.stdout
