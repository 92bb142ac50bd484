"""Byte-for-byte golden outputs of the CLI and the remainder report.

Each case is a sha256 digest of the exact text a command prints (or of the
report's JSON), so any refactor of the catalogs, the suites or the remainder
machinery that changes a single output byte fails here.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from ladderpoly.algebra import ONE, X, Polynomial
from ladderpoly.cli import main
from ladderpoly.identities import remainder_structure_report, remainder_term

GEN_FAMILIES = {
    "legendre": [],
    "gegenbauer": ["--lambda", "3/2"],
    "chebyshev-T": [],
    "chebyshev-U": [],
    "laguerre": ["--alpha", "1/2"],
    "hermite": [],
    "laguerre-radial": ["--alpha", "1/2"],
}

#: The specs behind verify.representative_operators(), as factorize arguments.
FACTORIZE_SPECS = {
    "legendre": ["--n", "3"],
    "assoc-legendre": ["--n", "3", "--m", "2"],
    "gegenbauer": ["--n", "3", "--lambda", "3/2"],
    "chebyshev-T": ["--n", "3"],
    "chebyshev-U": ["--n", "2"],
    "laguerre": ["--n", "2", "--alpha", "1/2"],
    "hermite": ["--n", "2"],
    "laguerre-radial": ["--n", "2", "--alpha", "1/2"],
    "coulomb-radial": ["--n", "1", "--ell", "1"],
    "oscillator-3d": ["--n", "1", "--ell", "1"],
}

#: The two radial families print no lowering operator.
NO_LOWERING = ("coulomb-radial", "oscillator-3d")

VERIFY_SUITES = ("oracle", "eq31", "remark3term", "eq34", "assoc-relations", "rodrigues", "all")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for family, params in GEN_FAMILIES.items():
        for fmt in ("json", "csv", "latex"):
            cases[f"gen {family} {fmt}"] = ["gen", "--family", family, "--n-max", "10", "--format", fmt, *params]
    cases["gen assoc-legendre m=2"] = ["gen", "--family", "assoc-legendre", "--m", "2", "--n-max", "8"]
    cases["gen assoc-legendre m=2 latex"] = [*cases["gen assoc-legendre m=2"], "--format", "latex"]
    # an odd order keeps the (x^2-1)^(1/2) weight in every member
    cases["gen assoc-legendre m=3"] = ["gen", "--family", "assoc-legendre", "--m", "3", "--n-max", "8"]
    for suite in VERIFY_SUITES:
        cases[f"verify {suite}"] = ["verify", "--suite", suite, "--n-max", "6", "--json"]
    # every Rodrigues instance up to the suite's cap of n = 12
    cases["verify rodrigues n=12"] = ["verify", "--suite", "rodrigues", "--n-max", "12", "--json"]
    for family, params in FACTORIZE_SPECS.items():
        raising = ["factorize", "--family", family, *params, "--drift", "x^2+1"]
        lowering = [*raising[:-2], "--direction", "lowering", *raising[-2:]]
        shapes = {"factorize": raising, "factorize lowering": lowering}
        if family in NO_LOWERING:
            del shapes["factorize lowering"]
        for prefix, argv in shapes.items():
            cases[f"{prefix} {family}"] = [*argv, "--json"]
            # the text form ends with the "verification: 5/5 testers exact" line
            cases[f"{prefix} {family} text"] = argv
    return cases


CASES = _cases()

GOLDEN = {
    'factorize assoc-legendre': '9bb6056784cba31271301e5732ace5c77dfd4d5cd77d9e2f30a058b6fbb2d220',
    'factorize assoc-legendre text': 'ce68444acc5e92f09400f2ce778bd1a91cd82100c328f3af5791e1353ac0f7f4',
    'factorize chebyshev-T': '6b4aae8c94113bdd2639c80108ba851ac812658c2f9ac8d2df4295508e43744f',
    'factorize chebyshev-T text': 'e843092dc75f658cf27c87af1745d596b4bfec9c034a2705c0fcd1b667d9fbd3',
    'factorize chebyshev-U': '475917f66832c3a9a8d070676cdb11a7c6e6304d3d399b86aa2773e62e53186b',
    'factorize chebyshev-U text': '25f973f5aeea48184ec0c70bbf0372b9d73ceabdeb7bf2f0c4d371ca2353e6c1',
    'factorize coulomb-radial': '968ac3a4f0b82a5ce6d05590092a66095ad33b81481b53eebd3449bd26263088',
    'factorize coulomb-radial text': '4624d63d3e368622e5299682c58ca8e28d56f1bbfbe03a6a65655e15352e6334',
    'factorize gegenbauer': '9480b3f2f7ac30c80636af4caa9dd6943ecdd0885ff7a5b2138f4305a13fd1ee',
    'factorize gegenbauer text': '9c9af3383b2643cd72bd4e43db64a77c9e2e2b1d020292bf7400d55eb9cd8e39',
    'factorize hermite': '3362f2176dfcf832b2d9adf02e3dfaf674c2e32846eefc580a495989961561d8',
    'factorize hermite text': '75bc95b2f474e0e9ed4a55a0f2a1fb117747c0606078d09db8719a7ebabfe2e2',
    'factorize laguerre': 'f9b564827512559c57f28ab4025aca66d556e4ff4ef333b6439db14a6fe128cb',
    'factorize laguerre text': 'e473f68454ea9e7e7aecae13860d3145f88a04f72cd949c2d1a1e2b963c3ec8e',
    'factorize laguerre-radial': '6c45a8d4466ac1058c358112efcfcc81e1ccb2d2be1e65fde86ba12c24b2696d',
    'factorize laguerre-radial text': '9acabba5325c60b05342f47fbf5293383a89d787c6b8914b2f922ed9ced11ae5',
    'factorize legendre': '75903cf220bfc0a283aa95d61018dd7d292d9cb2b65f4e2b93621295cf41e487',
    'factorize legendre text': 'c9ad97b3d59a0e71f2f1475a86a1878412242471e8dd7abeba184c8f9059f768',
    'factorize lowering assoc-legendre': 'd4f2d4395d17644c7033a8b874f7cfbc95bd8be6e6fa62093b3903a6b5dfc03f',
    'factorize lowering assoc-legendre text': 'd15b9101d2a88ad4021c215a6a195ba5661d8b9aa395ed0fa4e63ab93dd3d064',
    'factorize lowering chebyshev-T': '71bf046cc5ff1098ed7aefe1f3631786b94ce68adeedcea04d48adffeb7edb95',
    'factorize lowering chebyshev-T text': '5df722f9969fd255d4230bf837ce89899f14e2dcba1a835c876256433183ff01',
    'factorize lowering chebyshev-U': 'bc688fe7a57751b72353e0d2421437bfede9a0d1cfa605cf890a83050dceb42d',
    'factorize lowering chebyshev-U text': '9b9feba69de4b4e9d580da98150f63c6009439652289b41ab6b3db61b5487d8c',
    'factorize lowering gegenbauer': '07b090a6ea1080de0ab3fc24adddc7a577b6e71d3ddab2a819613dfa63b3f1af',
    'factorize lowering gegenbauer text': 'a12a50223ccd2bd25baff458303b78c0d88a367bc07b221e13c80bb8204d429f',
    'factorize lowering hermite': 'a1906e662740dda86d67a2449fd4c2a4a05d219a0e6e767a5d8558a6f804662b',
    'factorize lowering hermite text': 'c3a6da0bfd011c00b0ba32998795e1be20e7cde53f12a9c426748fb6201663ea',
    'factorize lowering laguerre': '11385d528bff57b6d939e6a4aba8c484212a2b7083a93d00cd3eea724da5830e',
    'factorize lowering laguerre text': 'c2899afd9da3015348aa40441a6e95d8379b2215fa7493522fd76eee61653713',
    'factorize lowering laguerre-radial': '2e2a8fea179286e7f5fbe26afb366bacb609d10909591e57e79df845101d1fd2',
    'factorize lowering laguerre-radial text': 'd156ace454c08fef1a10b9d2765dfaeed320b78e2fd76ad62cb236fc43ad391d',
    'factorize lowering legendre': '8ed6da1355442ba1addafaef40086d33ba40af655eb69ff1b9d52f12a9080248',
    'factorize lowering legendre text': '517bedb428b9b934cf14864587b3de8336ab93df5017cc25228645731a977184',
    'factorize oscillator-3d': 'f81748cd6da12fb5c74a3c490cba19cc9cd674b7893ce6b2ecbe9a2aa24f26d4',
    'factorize oscillator-3d text': '32608cc46eb82e55edb8f8670bc327235f4f80433a9544624d457249bb528f4c',
    'gen assoc-legendre m=2': '746925c2d74e78fdd1e4d06094e7e96dcd8d7efea79f80ef55874e4a79edef93',
    'gen assoc-legendre m=2 latex': '07a42bb085f34dccc13885d8cc5e3b1917c87f3229a41e2f6151a00553c9eaf0',
    'gen assoc-legendre m=3': '37546ae196469b9b90d2514ac212282626edd64ca5a6ce277f62f8841155ee51',
    'gen chebyshev-T csv': 'c4fa4497b79dd09c50e2dc32a504e6262092d77e9feed80a9f3c5bcfdd475d77',
    'gen chebyshev-T json': 'e025f1eb5ba5a67ffa5cf6f69fb118ab5178ab3add8901c9b346d46650353e1e',
    'gen chebyshev-T latex': '31a3323f97e401c382695ef9b723ef6d042babca1e1d45b97289e69f32d1013a',
    'gen chebyshev-U csv': '4831decf99697b67555ce78dc061752cf6418c51f9b561fb9f6d2c1a3ad7609f',
    'gen chebyshev-U json': '11ec773443250e9fefbcd42469b23aabd0042ae3a1ea544951ccbc28d2ee61ea',
    'gen chebyshev-U latex': '95172034ab2fe4a44375e80166850729297015460f3600faa9456ca7366ea9a3',
    'gen gegenbauer csv': '18c82d447504ddbce0bce3017dfb5d9c8834763bf84f4a4deb666dad51ba2daa',
    'gen gegenbauer json': 'ab7185fbe4dde317b762b3a0eeec24af7ba0f4d4799fe7187192dcb080c0a85a',
    'gen gegenbauer latex': '31391e990067515dc06624b9013554e74c211b38cdcd1ba6ddee181acd5f4b99',
    'gen hermite csv': '0091cb68f74034e3bb25c1ccfcce0a4bd8836d38b186399f15d6fa18a6d5b18a',
    'gen hermite json': '037ebee7577ddea5f1ad74df73f32736fcaa3a8529058f0a42c3b0815dec6650',
    'gen hermite latex': 'f07b4f003ec7f33f253988abbd52fc46835f13558f7d81112f68e1f0219df176',
    'gen laguerre csv': '0d2b5d7122b32c6c12062182abeb81070430c43d28856bcba0dc5948a5614ba9',
    'gen laguerre json': '6b663c2565422c05012a8c4482c96f0e7cd7cc2b15677462f35b6f6210e067e9',
    'gen laguerre latex': 'cfc8a0518c42f7572f7ec6a42fca96ea84875dae994150d7ceed463eecd7fbf8',
    'gen laguerre-radial csv': '53c4049a7995fda8d32f94273167851e640797696c9ffdfceec73914c43b1263',
    'gen laguerre-radial json': '584ce0122165ed750310700894f762b501a3fd89e4c6bd2e7a9ccc7615f306f1',
    'gen laguerre-radial latex': '8d71c59a15ea00301d86a0add159516c2f5767e930b5abf34a6c4f26f018a4d1',
    'gen legendre csv': 'd3bc0685e46288233f4112a8d60bc16866b4ff98693c97036c13bef13dce9baf',
    'gen legendre json': '6a7392ca3c9930789f7410c3ab9cea01afb7726018b339a84338b722d8e79a53',
    'gen legendre latex': '90d5bcea77e113008f284ed9e071e7302fa510643436ace4c51e2c979a2c4ab5',
    'verify all': 'ca7a3368f53364b4e52fbb1343a54ee0d4c4f4661820f299fb67d31c67e02e2a',
    'verify assoc-relations': '57c64d588f88cb06365ac35e566eb32b3471599d7ca1f998abab8d70c744d763',
    'verify eq31': '3bab327e097eba5e722c0b4b8fba5ade4b7679ee40e0e9cd399e5f693e7ffe7c',
    'verify eq34': 'fed49d0308c407aadc8ab587c267685e5313e07850170b5a5167f561f69c5831',
    'verify oracle': '0759c57bc2576e3bb242221e2b495a55e6cb01bb1a681de01b6dd8e04fc69451',
    'verify remark3term': '5c378e4efd3c433721e2182331def2ef98e516414c561d2ad0719ac7c891dedc',
    'verify rodrigues': 'a1515fa8cb235565a1dee71a7fcd39331339598a90a54f52be253e3e6b2f59b9',
    'verify rodrigues n=12': '70df0fb5ccbcec4fc91006e01432c39a6626ded6518b59ec2dc6a8e6ef9283b2',
}

#: The remainder report's JSON at n = 3..5, and at its default n = 3..8.
REMAINDER_GOLDEN = "d0e31ac414d1da3f7cf712ff8347642c4a632cc3bd3b4876cd197ee08585be2e"
REMAINDER_DEFAULT_GOLDEN = "97970c439d6b8745541903f2c96fb82c3024df4f620f19fdfeee29a9d4dcf5f2"
#: The text of F[h] for n = 2..8 and h = 1, x, x^2, 1 + 2x + 3x^2, one line each.
REMAINDER_TERM_GOLDEN = "c92358e0c9842653082c579c5343261ede3de1a8be8cc1d2cb0424e829be4213"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_digest(argv: list[str]) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return _digest(buffer.getvalue())


def remainder_digest(*n_values) -> str:
    return _digest(json.dumps(remainder_structure_report(*n_values).to_dict()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_unchanged(name):
    assert cli_digest(CASES[name]) == GOLDEN[name]


def test_remainder_report_unchanged():
    assert remainder_digest(range(3, 6)) == REMAINDER_GOLDEN


def test_default_remainder_report_unchanged():
    assert remainder_digest() == REMAINDER_DEFAULT_GOLDEN


def test_remainder_term_unchanged():
    drifts = (ONE, X, X * X, Polynomial.of(1, 2, 3))
    text = "\n".join(str(remainder_term(n, h)) for n in range(2, 9) for h in drifts)
    assert _digest(text) == REMAINDER_TERM_GOLDEN
