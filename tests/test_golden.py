"""Golden sha256 digests of command line stdout, pinning output byte for byte.

The digests were recorded with numpy 2.4.6 (OpenBLAS, one thread).  The
trade-off map g no longer goes through BLAS: it is elementwise, each sum in
a fixed order.  The other outputs still hold BLAS products (gamma and b
from beta, the tomography and the Jacobian checks), whose summation order
differs between machines and numpy builds, so the test skips under any
other numpy version.  `check-e` reads GRAM, a physical Gram matrix that the
test writes to a file.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from blochcopy.cli import main

RECORDED_WITH = "2.4.6"
BETA = "0.7,0.5,0.4,0.31622776601683794"
STATE = "0.6,0.2,-0.3,0.7"
# diag(beta^2) of BETA with Hermitian off-diagonal entries that keep Re E_0q = Im E_q'q''
GRAM = [
    [[0.49, 0.0], [0.05, 0.02], [-0.03, 0.01], [0.0, 0.0]],
    [[0.05, -0.02], [0.25, 0.0], [0.0, 0.0], [0.02, 0.03]],
    [[-0.03, -0.01], [0.0, 0.0], [0.16, 0.0], [0.01, 0.05]],
    [[0.0, 0.0], [0.02, -0.03], [0.01, -0.05], [0.1, 0.0]],
]
GRAM_FILE = "{gram}"

GOLDEN = [
    (["scan", "--seed", "0", "--region", "good"],
     "4eaa1be11729de4527650c62d8f47dd827046b0f8ea972c98dcbc3d7c63970b9"),
    (["scan", "--seed", "0", "--region", "good", "--format", "csv"],
     "a645483ee685c507b93951f3fe52769d71db9e21170648f918a48d10a8bbe7a6"),
    (["scan", "--seed", "0", "--region", "outside"],
     "c9239c390fb8d3275ee27b27b0f225acfaf930adc88e66e39032720c1f826c96"),
    (["scan", "--seed", "0", "--region", "outside", "--format", "csv"],
     "fb41b271f67ce7f29b5c4be0aab8613495c2962794b6398a35d7bf745e84d462"),
    (["scan", "--seed", "1", "--region", "good"],
     "ad07566ad59a569a3fae15a264123eef54f61b6eaa57664ee9aff3b8cb0b072f"),
    (["scan", "--seed", "1", "--region", "good", "--format", "csv"],
     "a645483ee685c507b93951f3fe52769d71db9e21170648f918a48d10a8bbe7a6"),
    (["scan", "--seed", "1", "--region", "outside"],
     "24dfd85464309373320a5a77bad1bb0724ffcfe788d389bbba1d0b0b3319e3e7"),
    (["scan", "--seed", "1", "--region", "outside", "--format", "csv"],
     "84f03494e327aba2891bc5d4ba4ab828bc7d5c55da03e2208e12b49b042cff61"),
    # many outer points per tile; three good-region points of seed 0 miss
    # their first look-ahead block
    (["scan", "--n-outer", "2000", "--n-inner", "50", "--seed", "0", "--region", "good"],
     "1d3de9735c5213c285ed34f297449c3fbde688f2430511e63043642328530eb5"),
    (["scan", "--n-outer", "2000", "--n-inner", "50", "--seed", "0", "--region", "outside"],
     "caaaba25a62eab1ef496184527206b78e0e89c2bfa89e271b4dce73416a55101"),
    # points with fewer rows than a look-ahead block, whose blocks set the tile's point count
    (["scan", "--n-outer", "3000", "--n-inner", "5", "--seed", "0", "--region", "good"],
     "eba2eee9d7c327defd61df71e7f684a95e7eea7aedb1810a25947ca78873b4c6"),
    (["scan", "--n-outer", "3000", "--n-inner", "5", "--seed", "0", "--region", "outside"],
     "06b3b21cdaff5ac260551d99280f5e3259f5bb09c28f1319c4771767960e79d6"),
    (["tomography", "--beta", BETA, "--channel", "B"],
     "acd182a53723baa517c7efaaa9f73d5b6d2d0f0ea3a2ed2e7650ab89b26a3929"),
    (["tomography", "--beta", BETA, "--channel", "C"],
     "faa45a4f5572d0a8471580bda3ef910957a92b07c1898ee2b79ac80d1688feeb"),
    (["tomography", "--beta", BETA, "--channel", "D"],
     "db101c810537c65e43a118727e833508e04935e47c363bb2e79412173a4b9f7c"),
    (["gmap", "0.3", "0.6", "0.45"],
     "49fc1fc24e652a353e0b1025b5909644b3fe97c8f442cd881be7e22d08a09c90"),
    (["quality", "--beta", BETA, "--mode", "0.3,-0.5,0.8"],
     "a866800c6d42643f674f457d2579211a2c1b6b04f1e913fc370da0a909107310"),
    (["classify", "0.5", "0.6", "0.7", "0.4", "0.35", "0.3"],
     "715f4803b11c3d144c81ce396a2000417ca1a730db6caaf5ba365b07483ef69c"),
    (["fig1", "--count", "17"],
     "aa7873b8a9b1f4438b5d267f29d0c7c408a0b0d8f2746905367ef56906878494"),
    (["jacobian-check", "0.5", "0.6", "0.55"],
     "8c736f7f4bb31f26ed47597ef684301c58e398b14f45148a2606dd01c42a0515"),
    (["concavity"],
     "ff4496d48bdc4c6fa04c0b0efa03b500c30c8916fc1fadd524587b4768d2da0f"),
    (["concavity", "--trials", "500", "--seed", "7", "--p1", "0.3", "--mode", "0.3,-0.5,0.8"],
     "ad3ca72fda9ee14e01d0535d9be8281bd366ca10677c333a9651a29f9e147a7c"),
    (["concavity", "--trials", "50", "--seed", "123", "--p1", "0.9", "--mode", "x"],
     "49dc194d1e2c19b56898756c07be559094293e8ce19f9ae0d37337330fcbc4cb"),
    # two block boundaries and a last block of one trial
    (["concavity", "--trials", "2049", "--seed", "3", "--p1", "0.2"],
     "3e248a879fddb85e40250db5ddbd86409eeb69e50dcba26637de8f5f6b05efb8"),
    (["gmap", "0.3", "0.6", "0.45", "--format", "csv"],
     "ec3462cdf6836aea481d91d6dfdcabf694302f3c9c49b9102194b6033a8f7f4f"),
    (["quality", "--beta", BETA, "--mode", "0.3,-0.5,0.8", "--format", "csv"],
     "2efdece28040f8b57d4290d817078bd2fa22fca718327932f8da6101b0f573aa"),
    (["classify", "0.5", "0.6", "0.7", "0.4", "0.35", "0.3", "--format", "csv"],
     "d4f78b37383a62de3633eb2c90c2f770e45e1fb5eac7531a3409a80949c558ac"),
    (["tomography", "--beta", BETA, "--channel", "B", "--format", "csv"],
     "5774ea3c26e92ed39ffbdb680d7d473e8c975f5b1492521e92216660682c6e03"),
    (["tomography", "--beta", BETA, "--channel", "D", "--format", "csv"],
     "847677165d3eb8fa4aa2b37221c211ca8e739996b039eba5d0f0ca30d3b3edc4"),
    (["circuit", "--beta", BETA, "--variant", "a", "--input", STATE],
     "347ec8b4234cb5316f39231375fc2f30d740d0495d1358b993818da4e783b93b"),
    (["circuit", "--beta", BETA, "--variant", "a", "--input", STATE, "--format", "csv"],
     "c5f6c55f0ee8b7d315baee39b9767db34b36cd42d93a05cbfff6a6fda44e77f3"),
    (["circuit", "--beta", BETA, "--variant", "b", "--input", STATE],
     "7946884235b51a65c1ccb19ae64c6256b3c6767343245f863490626c7cdf557a"),
    # circuit b's output amplitudes are those of circuit a, bit for bit
    (["circuit", "--beta", BETA, "--variant", "b", "--input", STATE, "--format", "csv"],
     "c5f6c55f0ee8b7d315baee39b9767db34b36cd42d93a05cbfff6a6fda44e77f3"),
    (["fig1", "--count", "17", "--format", "json"],
     "2329eea42a82815e9bc67c50e9a852e49c27d0a7ffceeb4eea6783ad9696cbd4"),
    (["check-e", GRAM_FILE],
     "a600636802d3476bdc424a688b239a91c8c7f577d2f9f95ee62d2afecb1bb0bf"),
]


@pytest.mark.skipif(
    np.__version__ != RECORDED_WITH,
    reason=f"digests recorded with numpy {RECORDED_WITH}, running {np.__version__}",
)
@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_matches_golden_digest(argv, digest, tmp_path):
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"e_gram": GRAM}))
    argv = [str(gram) if a == GRAM_FILE else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
