"""Golden sha256 digests of command line stdout, pinning output byte for byte.

The digests were recorded with numpy 2.4.6 (OpenBLAS, one thread).  BLAS
summation order differs between machines and numpy builds, so the test
skips under any other numpy version.  The `circuit` subcommand is left
out: its last bits may move when the circuit engine changes.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from blochcopy.cli import main

RECORDED_WITH = "2.4.6"
BETA = "0.7,0.5,0.4,0.31622776601683794"

GOLDEN = [
    (["scan", "--seed", "0", "--region", "good"],
     "4eaa1be11729de4527650c62d8f47dd827046b0f8ea972c98dcbc3d7c63970b9"),
    (["scan", "--seed", "0", "--region", "good", "--format", "csv"],
     "a645483ee685c507b93951f3fe52769d71db9e21170648f918a48d10a8bbe7a6"),
    (["scan", "--seed", "0", "--region", "outside"],
     "ad7b38c10ab417eca8bf4c30290c9168da54aeac8dd36847b9a6a02ce87c8d00"),
    (["scan", "--seed", "0", "--region", "outside", "--format", "csv"],
     "fb4f364409e0a815177230f7c75f0b5dfbfd26545fbd00969160a1c02093fedd"),
    (["scan", "--seed", "1", "--region", "good"],
     "ad07566ad59a569a3fae15a264123eef54f61b6eaa57664ee9aff3b8cb0b072f"),
    (["scan", "--seed", "1", "--region", "good", "--format", "csv"],
     "a645483ee685c507b93951f3fe52769d71db9e21170648f918a48d10a8bbe7a6"),
    (["scan", "--seed", "1", "--region", "outside"],
     "b7a1cb39372b8c5f6a55a9fef1e81a06f38d4f04b18f5ed292c618eef00d8e58"),
    (["scan", "--seed", "1", "--region", "outside", "--format", "csv"],
     "5c0c86a84809d1194fa57d267497240e683463d594c51258e49a5d1419e5062c"),
    (["tomography", "--beta", BETA, "--channel", "B"],
     "acd182a53723baa517c7efaaa9f73d5b6d2d0f0ea3a2ed2e7650ab89b26a3929"),
    (["tomography", "--beta", BETA, "--channel", "C"],
     "faa45a4f5572d0a8471580bda3ef910957a92b07c1898ee2b79ac80d1688feeb"),
    (["tomography", "--beta", BETA, "--channel", "D"],
     "db101c810537c65e43a118727e833508e04935e47c363bb2e79412173a4b9f7c"),
    (["gmap", "0.3", "0.6", "0.45"],
     "3d9fb9877bdc88234900867b208ba329eacff1ccef01cb260d300ea890763a4d"),
    (["quality", "--beta", BETA, "--mode", "0.3,-0.5,0.8"],
     "a866800c6d42643f674f457d2579211a2c1b6b04f1e913fc370da0a909107310"),
    (["classify", "0.5", "0.6", "0.7", "0.4", "0.35", "0.3"],
     "76a575ab1a7515610a8dbffb5f4ff013837e1f5c9e51872f08acc1cf8914cae9"),
    (["fig1", "--count", "17"],
     "aa7873b8a9b1f4438b5d267f29d0c7c408a0b0d8f2746905367ef56906878494"),
    (["jacobian-check", "0.5", "0.6", "0.55"],
     "ca3aea11f221ddf61ffef9652a64e57485b5a57ca7814ea30e7db571131e1a22"),
]


@pytest.mark.skipif(
    np.__version__ != RECORDED_WITH,
    reason=f"digests recorded with numpy {RECORDED_WITH}, running {np.__version__}",
)
@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_matches_golden_digest(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
