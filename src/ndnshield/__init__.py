"""Deterministic discrete-event simulation of named-data networking
under denial-of-service attack, with cryptographically grounded content
validity and quantitative evaluation of router-side countermeasures.

The public surface re-exports the pieces most scenarios touch; the
submodules hold the full API.
"""

from .crypto import KeyPair, compute_content_hash, sign_packet, verify_signature
from .packets import (
    BloomExclude,
    DataPacket,
    EmbeddedKey,
    ExplicitExclude,
    Interest,
    KeyName,
    Name,
    interest_matches,
    parse_name,
)
from .rand import Rng

__version__ = "0.1.0"

__all__ = [
    "BloomExclude",
    "DataPacket",
    "EmbeddedKey",
    "ExplicitExclude",
    "Interest",
    "KeyName",
    "KeyPair",
    "Name",
    "Rng",
    "compute_content_hash",
    "interest_matches",
    "parse_name",
    "sign_packet",
    "verify_signature",
]
