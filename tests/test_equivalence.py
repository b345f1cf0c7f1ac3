"""Output bytes that no change to the interpreter may move.

Each variant runs `ndnshield run` on the committed `chain_flood.json`, at
its full 60 s with both arms, in a fresh interpreter changed one way: a
fixed string hash seed, or the import of numpy, `cryptography` or
`_hashlib` blocked. Both CSVs and `summary.json` must equal those of a
plain fresh run, and the signers must be libcrypto's, or builtin pow's
where `_hashlib` is blocked. Each demo's standard output must have the
digest `demos/SHA256SUMS` gives it. The fresh interpreters run two at a
time, one per core.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from helpers import FIXTURE, ROOT, _in_fresh_interpreter
from test_golden import output_digests

SIGNERS = ("sorted({key.sign.__qualname__ for key, _ in ndnshield.crypto._FRESH_KEYS.values()}), "
           "ndnshield.crypto._libcrypto() is None")
VARIANTS = {  # name: (environment, blocked modules, the signers it shows, if checked)
    "plain": ({}, "", "['_LibCrypto.signer.<locals>.sign'] False"),
    "hash-seed-0": ({"PYTHONHASHSEED": "0"}, "", None),
    "hash-seed-4242": ({"PYTHONHASHSEED": "4242"}, "", None),
    "no-numpy": ({}, "numpy", None),
    "no-cryptography": ({}, "cryptography", None),
    "no-hashlib": ({}, "_hashlib", "['_pow_signer.<locals>.sign'] True"),
}
SUMS = dict(line.split()[::-1] for line in (ROOT / "demos" / "SHA256SUMS").read_text().splitlines())


def _run(out, env: dict, blocked: str) -> tuple[str, dict[str, str]]:
    """The signers a fresh run of the fixture took, and the digests of what it wrote."""
    shown = _in_fresh_interpreter("run", str(FIXTURE), "--out", str(out), show=SIGNERS,
                                  blocked=blocked, env=env)
    return shown.splitlines()[-1], output_digests(out)


def _demo(demo: str) -> str:
    printed = _in_fresh_interpreter(str(ROOT / "demos" / f"{demo}.py"))
    return hashlib.sha256(printed.encode()).hexdigest()


@pytest.fixture(scope="module")
def done(tmp_path_factory) -> dict:
    """The future of each variant's run, of each demo's digest and of the reference run."""
    with ThreadPoolExecutor(2) as pool:
        runs = {name: pool.submit(_run, tmp_path_factory.mktemp(name), env, blocked)
                for name, (env, blocked, _) in {"reference": ({}, "", None), **VARIANTS}.items()}
        return {**runs, **{demo: pool.submit(_demo, demo) for demo in SUMS}}


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_writes_the_plain_bytes(variant, done):
    shown, digests = done[variant].result()
    assert digests == done["reference"].result()[1]
    assert len(digests) == 3  # both arms' CSVs and the summary
    if VARIANTS[variant][2]:
        assert shown == VARIANTS[variant][2]


@pytest.mark.parametrize("demo", SUMS)
def test_demo_prints_its_pinned_bytes(demo, done):
    assert done[demo].result() == SUMS[demo]
