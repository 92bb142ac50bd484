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

from ladderpoly.cli import main
from ladderpoly.identities import remainder_structure_report

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

VERIFY_SUITES = ("oracle", "eq31", "remark3term", "eq34", "assoc-relations", "rodrigues", "all")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for family, params in GEN_FAMILIES.items():
        for fmt in ("json", "csv", "latex"):
            cases[f"gen {family} {fmt}"] = ["gen", "--family", family, "--n-max", "10", "--format", fmt, *params]
    cases["gen assoc-legendre m=2"] = ["gen", "--family", "assoc-legendre", "--m", "2", "--n-max", "8"]
    for suite in VERIFY_SUITES:
        cases[f"verify {suite}"] = ["verify", "--suite", suite, "--n-max", "6", "--json"]
    for family, params in FACTORIZE_SPECS.items():
        cases[f"factorize {family}"] = ["factorize", "--family", family, *params, "--drift", "x^2+1", "--json"]
    return cases


CASES = _cases()

GOLDEN = {
    'factorize assoc-legendre': '9bb6056784cba31271301e5732ace5c77dfd4d5cd77d9e2f30a058b6fbb2d220',
    'factorize chebyshev-T': '6b4aae8c94113bdd2639c80108ba851ac812658c2f9ac8d2df4295508e43744f',
    'factorize chebyshev-U': '475917f66832c3a9a8d070676cdb11a7c6e6304d3d399b86aa2773e62e53186b',
    'factorize coulomb-radial': 'dbc8b569a5373ad40c6ff10b3bddc4d00c2368523497510324de59720fe9e1a6',
    'factorize gegenbauer': '9480b3f2f7ac30c80636af4caa9dd6943ecdd0885ff7a5b2138f4305a13fd1ee',
    'factorize hermite': '3362f2176dfcf832b2d9adf02e3dfaf674c2e32846eefc580a495989961561d8',
    'factorize laguerre': 'f9b564827512559c57f28ab4025aca66d556e4ff4ef333b6439db14a6fe128cb',
    'factorize laguerre-radial': '59ad926248fc378db5b52b52c18f17e51a289f0cc437ec6fe3ab27e3b76530a5',
    'factorize legendre': '75903cf220bfc0a283aa95d61018dd7d292d9cb2b65f4e2b93621295cf41e487',
    'factorize oscillator-3d': '7e20eee80ef9930739592adfa6892836ed56b032225d68229b0a90907c95b2cf',
    'gen assoc-legendre m=2': '746925c2d74e78fdd1e4d06094e7e96dcd8d7efea79f80ef55874e4a79edef93',
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
}

REMAINDER_GOLDEN = "d0e31ac414d1da3f7cf712ff8347642c4a632cc3bd3b4876cd197ee08585be2e"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_digest(argv: list[str]) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return _digest(buffer.getvalue())


def remainder_digest() -> str:
    return _digest(json.dumps(remainder_structure_report(range(3, 6)).to_dict()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_unchanged(name):
    assert cli_digest(CASES[name]) == GOLDEN[name]


def test_remainder_report_unchanged():
    assert remainder_digest() == REMAINDER_GOLDEN
