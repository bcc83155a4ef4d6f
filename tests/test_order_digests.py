"""Digests of the CLI outputs whose bytes depend on orientation tie-breaks.

The column order fixes which fillings `enumerate sorted` streams and in
what order; the coinversion triples fix the `coinv` of every streamed
nonattacking filling; the flip operators fix every family member, every
tree edge and its label.  A slip in any of them changes these bytes even
where a polynomial sum stays the same.  Each case runs every partition of
m at every variable count n <= 3 that fits, and hashes the argument list,
the exit code and stdout of each request.

The item list of each validation suite fixes the order of its `validate`
lines; those lists are hashed for every --max from 0 to 6.
"""

import hashlib

import pytest
from click.testing import CliRunner

from macpoly.cli import SUITES, main
from macpoly.shapes import partitions_of

# The sorted tableau of the worked three-row reversal (acceptance
# criterion 7): its single five-column component has 120 family members.
WORKED_ROOT = "3,2,1,1,3;2,2,3,3,4;1,1,1,2,2"


def _csv(parts):
    return ",".join(map(str, parts))


def _requests(route, m):
    for lam in partitions_of(m):
        for n in range(1, 4):
            if route == "enumerate-sorted":
                yield ["enumerate", "sorted", "--shape", _csv(lam),
                       "--nvars", str(n)]
            elif route.startswith("family-"):
                yield ["family", "--shape", _csv(lam), "--nvars", str(n),
                       "--format", route[len("family-"):]]
            elif len(lam) <= n:
                pad = (0,) * (n - len(lam))
                increasing = pad + tuple(sorted(lam))
                if route == "enumerate-ordered":
                    yield ["enumerate", "nonattacking", "--shape",
                           _csv(increasing), "--nvars", str(n), "--ordered"]
                else:
                    reversed_base = _csv(range(n, 0, -1))
                    for shape in (increasing, lam + pad):
                        yield ["enumerate", "nonattacking", "--shape",
                               _csv(shape), "--nvars", str(n),
                               "--basement", reversed_base]


def _digest(requests):
    h = hashlib.sha256()
    for argv in requests:
        res = CliRunner().invoke(main, argv)
        h.update(f"{argv} {res.exit_code}\n".encode())
        h.update(res.stdout_bytes)
    return h.hexdigest()


CASES = {
    **{f"{route}-m{m}": (lambda route=route, m=m: _requests(route, m))
       for route in ("enumerate-sorted", "enumerate-ordered",
                     "enumerate-basement", "family-json", "family-dot")
       for m in range(1, 6)},
    "family-root-worked": lambda: (["family", "--root", WORKED_ROOT, "--format",
                                    fmt] for fmt in ("json", "dot")),
}

# SHA-256 recorded from the geometric orientation test (a cross product
# over cell coordinates) that preceded the cyclic key.
DIGESTS = {
    'enumerate-basement-m1':
        "dbc30a07c644ae6549d9d14f3ec4bf428d8a472d48d586f91f7d770a5a5cd3ab",
    'enumerate-basement-m2':
        "f6bd06811dfe86d9997c8a84791c75b5798a9a3d61c577957fba8238a5b96355",
    'enumerate-basement-m3':
        "652e89bc85e45468447da9f0d61a9edf5d3c3b5b4b63af07957774b4b2cbb55b",
    'enumerate-basement-m4':
        "e989029dd90732df6a9766985b0e7b5c9fdf2a4f398c44993bc60ba480d50632",
    'enumerate-basement-m5':
        "cf06626ba778cdea469be91d82f73fa8693439413148cc201d33dac6b21d95c1",
    'enumerate-ordered-m1':
        "75a74bc0c2e9209824895821ca9e9d8dd4377e738c7fc6c08a08b6d80903343f",
    'enumerate-ordered-m2':
        "82678957203fb342436980ff6f47c0f4adcaebcfbd82ff33da6b9a7495105b43",
    'enumerate-ordered-m3':
        "4bd9cf0abf6d0249699c42b11b6ea926bb7fb03080c7bbdb122ca4909d08ce2b",
    'enumerate-ordered-m4':
        "027c0715331e18a9bb60c172a6e199412d3aa11a94eb5cf0bb6f727c957e8d5a",
    'enumerate-ordered-m5':
        "6d23ff9e02a5390c1cd21ae2e3cd40455f4b43c886b72e7538985d18b8b82d89",
    'enumerate-sorted-m1':
        "8000e82268da248efe32bb9f23c40465ccceffdc78730cabdc0467cc9620bca4",
    'enumerate-sorted-m2':
        "e2e7154f95e75d669624448c6f7a6135e3ab423b318d068578d4d1f09cad9cc4",
    'enumerate-sorted-m3':
        "80fb706719e80c8c28d7ae05d41aabe374a3163b8b05a34736f3f3b02ab6dc37",
    'enumerate-sorted-m4':
        "f02c7bc19cfc0436697fd0cbbe370c32ba6ee86829be8fe10982a50ebe4b5a75",
    'enumerate-sorted-m5':
        "a39ac415b3bc8d4eea0af842d73fdbf49859197f654b2e32fcb61d34f92572b4",
    'family-dot-m1':
        "9cb9966791687428b21e406c53909200256c703df80e42dd23fb009e0f5ec43f",
    'family-dot-m2':
        "9baee18c9c76e442ef637e5ef61a27600bbac70a1c049fc0608a377da05849cc",
    'family-dot-m3':
        "25ea198b832b7f18f84f78e7a1878b5c95543aad535efac9ed305eeccf86be0a",
    'family-dot-m4':
        "3f78d7b0efbac75017e5c168bcac55ad6bdf823a701c569e813b23541d4acf57",
    'family-dot-m5':
        "aa48e256e55f535547c67264f177f0f61474140041274427737b0a6fdf346d77",
    'family-json-m1':
        "0d105dea75e379d8df028a57ee4e412711ae009032f4bbb0639c0a90ecdbf377",
    'family-json-m2':
        "72e0c98b720aa969125475a87c15ab85964699b1c6f76c720292c2671c05b838",
    'family-json-m3':
        "7903bdc45f43b15d0e7f70ff68feebdb3c99e44c3638b39d698abd73641dde47",
    'family-json-m4':
        "998e3dc2702569a61ace4a3cf838eb3442bfab27bb5f29c20355a8c4ecd502c6",
    'family-json-m5':
        "fe52b794cc80f773a8bfe7d11ec5d4bee1cafaf7675522a50aa3179d839036d9",
    'family-root-worked':
        "b3f6fcbafd91b0ba272daf0565fadf1e0fcdb3af9b699236dd2b735d3aa5679c",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_order_sensitive_outputs_match_recorded_digests(case):
    assert _digest(CASES[case]()) == DIGESTS[case], case


# SHA-256 of repr([items(mx) for mx in range(7)]) per suite, recorded from
# the hand-written partition, composition and weak-composition generators
# that preceded macpoly.shapes.compositions.
SUITE_DIGESTS = {
    "compact-vs-brute":
        "60d814713973a07d21bf44e7b29752e73ca38337183dbee160f9e9250a44e2a9",
    "family-partition":
        "777771293086fc622faf9c45c39ad49cd2c8869df1ad21f894a559bc26fd5881",
    "hecke":
        "0fc5d1bc3cf82a137c2d2056bc1c5406dadd0c2ec4cdc8f14e7739fd39b97a52",
    "j-identities":
        "60d814713973a07d21bf44e7b29752e73ca38337183dbee160f9e9250a44e2a9",
    "operator-lemmas":
        "777771293086fc622faf9c45c39ad49cd2c8869df1ad21f894a559bc26fd5881",
    "pds":
        "47c4fb6c143f51fa7529275a3da16bcd0b7ea8571955d4b30a12d6c0b9610056",
    "quasisym":
        "71ace99ccbe4aaa29e623e70a0817063937b1b0683825dc1565e18035239e0e0",
    "refinement":
        "60d814713973a07d21bf44e7b29752e73ca38337183dbee160f9e9250a44e2a9",
    "reverse":
        "375f983e295a48dce74fa1d3e57fd7512338e53d0ff5f923725e26fef3d79d6e",
    "schur":
        "60d814713973a07d21bf44e7b29752e73ca38337183dbee160f9e9250a44e2a9",
    "tatom":
        "0fc5d1bc3cf82a137c2d2056bc1c5406dadd0c2ec4cdc8f14e7739fd39b97a52",
}


def test_every_suite_is_pinned():
    assert sorted(SUITE_DIGESTS) == sorted(SUITES)


@pytest.mark.parametrize("suite", sorted(SUITE_DIGESTS))
def test_suite_items_match_recorded_digests(suite):
    items = [SUITES[suite][1](mx) for mx in range(7)]
    assert (hashlib.sha256(repr(items).encode()).hexdigest()
            == SUITE_DIGESTS[suite]), suite
