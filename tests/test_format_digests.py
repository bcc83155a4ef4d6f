"""Digests of `compute` output in every format.

Each case is one `compute` request, run with `--format json`, `text` and
`latex`; the digest hashes the argument list, the exit code and stdout.
The cases cover every selector and the edge cases of the writers: the
zero polynomial, the empty composition at n = 0, negative coefficients,
large symmetric sums and the RationalForm results of `P` and `G`.
"""

import hashlib

import pytest
from click.testing import CliRunner

from macpoly.cli import main

CASES = {
    "htilde-zero-n0": ("htilde", "1", 0),
    "htilde-2,1-n3": ("htilde", "2,1", 3),
    "htilde-2,2,1-n4": ("htilde", "2,2,1", 4),
    "htilde-1,1,1,1-n5": ("htilde", "1,1,1,1", 5),
    "J-usage-error-1-n0": ("J", "1", 0),
    "J-2,1-n2": ("J", "2,1", 2),
    "J-3,1-n4": ("J", "3,1", 4),
    "P-1,1-n2": ("P", "1,1", 2),
    "P-2,1-n3": ("P", "2,1", 3),
    "E-integral-empty-n0": ("E-integral", "", 0),
    "E-integral-0,2,1-n3": ("E-integral", "0,2,1", 3),
    "G-empty-n0": ("G", "", 0),
    "G-1,2-n3": ("G", "1,2", 3),
    "QS-2,1-n3": ("QS", "2,1", 3),
    "QS-1,3-n4": ("QS", "1,3", 4),
    "atom-0,1,2-n3": ("atom", "0,1,2", 3),
    "atom-2,0,1-n3": ("atom", "2,0,1", 3),
}


def _digest(selector, shape, nvars, fmt):
    argv = ["compute", selector, "--shape", shape, "--nvars", str(nvars),
            "--format", fmt]
    res = CliRunner().invoke(main, argv)
    h = hashlib.sha256()
    h.update(f"{argv} {res.exit_code}\n".encode())
    h.update(res.stdout_bytes)
    return h.hexdigest()


# SHA-256 recorded from the renderer that built each JSON document with
# json.dumps(to_json_dict()) and sorted terms with a key function.
DIGESTS = {
    "E-integral-0,2,1-n3-json":
        "5ffdcadeb2b6f88ac1707954bd46d906bd031bbd7c1845c43627d1c6e8f38205",
    "E-integral-0,2,1-n3-text":
        "551b8b0d0e287339ae619a13354054f3acc595cf2674fb1450aa89e42a61f073",
    "E-integral-0,2,1-n3-latex":
        "36a021732f3545c72df05348d468fb96f6c59e9298bcb9c63c1849a412ca2816",
    "E-integral-empty-n0-json":
        "c71b1b2b7a41a4626fa1c7b739f65748820ad9f6c170547296a3d1d6501515cc",
    "E-integral-empty-n0-text":
        "60e18ef54cec2afde61f86b89507773f65397aaec6a423bdcc27a86106f383de",
    "E-integral-empty-n0-latex":
        "b20b562ded1fc2dafdf2260a22f2774173959182f2b8dbf6d33d238dd6055f88",
    "G-1,2-n3-json":
        "bf3d6fe9534019fb2846879bcc27a8523b5874460123b6552d2688bd867acfee",
    "G-1,2-n3-text":
        "42c3a86ac5678c6e62085bccfb9a9e599d47113d2e3d62e6062b5b263409004f",
    "G-1,2-n3-latex":
        "c289fb26873568782889fd560f20d7d8b45e298a5267234e6719e87f5e1a48ef",
    "G-empty-n0-json":
        "86c2370f11292333a0cef2341003f5649c13cc9a8fd173c908d3e3f78a8082e8",
    "G-empty-n0-text":
        "b83d72d38eb63dc1dfbfcb394dc4fe771f5f91ee6f4125b7b74c0aa40e5a6a10",
    "G-empty-n0-latex":
        "241f55a9815d313a0d583621c6f947bd5d6dc1ac8fe3a289e1ffd344dc7ef5a1",
    "J-2,1-n2-json":
        "02ff8dbdbe085fff703d3a376298a9efadd7eff583b64f3502101dd28209f363",
    "J-2,1-n2-text":
        "fbf682539b11c310372f28a20b2b69757ee883ef23e4785bedd80bc2f670290a",
    "J-2,1-n2-latex":
        "8c9938940d6e3b2233f220309815abc0950e55907a5304207cfdb4e7d437f31f",
    "J-3,1-n4-json":
        "ad525323544e6c48e2d61bd1cadb95370572cc814f03dd8b82c8f4137541620d",
    "J-3,1-n4-text":
        "56df79fe20a769756e86934799aafc131dc18418fab21e2661843d933df1ca30",
    "J-3,1-n4-latex":
        "ddcaa8020887132be0557cc52a313fdce3ed3c926956c3b9e3bff5656cbf8c46",
    "J-usage-error-1-n0-json":
        "5b72f7c083babd06c7987021e3a01f16d60ceed1a8ecc8ac44b598cdb987cf07",
    "J-usage-error-1-n0-text":
        "e26b9e324224aa81be493bd5e81fb91fccf6d79ae632b823656c6c6b3d191c11",
    "J-usage-error-1-n0-latex":
        "65acb89f8c4ee3d8cf777aa2838e901c71e5e9bbe68b8506d67d80fd2895d509",
    "P-1,1-n2-json":
        "718bf2a744361893706a6185778725853bb73dfa0ca2f3ff758eecb8640350f6",
    "P-1,1-n2-text":
        "24755c02dc99c4ab69e2a7dad9a0fab63a41c8fa9075bfdc47d914acd4435911",
    "P-1,1-n2-latex":
        "ad1ab195bf4bae5a03052c026d1b61e60c7b64554dc6a7e1c5eac1d3b40d90e6",
    "P-2,1-n3-json":
        "063035d10e9a3ae7ebecbeaedf134e9d4d640fe3742bde5da96566854314cee9",
    "P-2,1-n3-text":
        "358d643c43e76a5e0f3bb5615efd0a51b99c3219ae6897aa71338ebae12a75e1",
    "P-2,1-n3-latex":
        "1fe39548b7b75e4149b1b61e03738d72d8091e9ba87d8d74b7102b4f2a36c642",
    "QS-1,3-n4-json":
        "a298fce1a6e149ca8231a2796640f2610d075a6ca042b280fba6f3379134a34f",
    "QS-1,3-n4-text":
        "b422ba7e11276b88b92cc2cb87efc2c4991ae2f9561931ceb3143e9427ae30fb",
    "QS-1,3-n4-latex":
        "f01d20d535dfcca9c2d93ceb7fb9ab524c451485a1bcf9e5201c112c744674be",
    "QS-2,1-n3-json":
        "27432c0ab08474ca40964191db7f5c0757dedbe95508bf8517d302b5fd44c767",
    "QS-2,1-n3-text":
        "24fe0a7be3b8cec78cd53a17b61ee8003200c7f3c84f92bf6bfd92d3a39669f3",
    "QS-2,1-n3-latex":
        "b53bcd8d66613edc87ddb45b2c32f9e7bc76e2bc7afcb3577f1d2b590224fc84",
    "atom-0,1,2-n3-json":
        "5b68e623a7a4e079e01701835d9ac2e0d85ccbd234663270070ed040cfc86902",
    "atom-0,1,2-n3-text":
        "952ada44f52d70a784984d71fed179b61986c2757b44b8b85eb83dbd16340406",
    "atom-0,1,2-n3-latex":
        "2ac3fb00ad1f5b086528a9937657762c23683c82e8521ab34e69d1fe0610f563",
    "atom-2,0,1-n3-json":
        "5dec198a328e42dc18b7bed9dc1f4cf72c760bffc9032b0bc323e46656c0106d",
    "atom-2,0,1-n3-text":
        "1f3af600030f35a7ded13818ff7da69ce61135917cdb49d2871f2a695657f590",
    "atom-2,0,1-n3-latex":
        "662ad863959c884ebe88ad964f4ce137189b02dc0699be032cefe56ed2a7d879",
    "htilde-1,1,1,1-n5-json":
        "822b2b8c5bc9c98c9c3886228a015489624a27d2ef6c0e2a10963229424d2958",
    "htilde-1,1,1,1-n5-text":
        "3227f5b183e73357f7967786bba6f7a59f25383ee3119d518517ad183066bb89",
    "htilde-1,1,1,1-n5-latex":
        "55db38815ddba2243458041edee728ee0084b5ef66dfd51146a740732dc0a2b9",
    "htilde-2,1-n3-json":
        "7016d5f328c50be17ce46c56cba49777065057fc3591e0b40af922459680a2b0",
    "htilde-2,1-n3-text":
        "55bd522906d76ec326162963fe6031ebe816782bc848a0a44444858f12fb8dcd",
    "htilde-2,1-n3-latex":
        "e9a7811a104856eb15fcfee6c15a5b85a46a3ba4b555c7cf793d1457a719c1ff",
    "htilde-2,2,1-n4-json":
        "ad1c253f465c9efe0838f03ea1d688f740cb8bba644b43e34ccf68a6dae81dfe",
    "htilde-2,2,1-n4-text":
        "cb9e9b9496bd49fe0dbc18e6fec07bd65430bc8b5256978c4196ffbebcea4b43",
    "htilde-2,2,1-n4-latex":
        "b2a05319943ae9db117aad6d1cc5b72222a15ab82d7f74bda2e1be299238220f",
    "htilde-zero-n0-json":
        "5786cc4dc4f2e867b29aee3ede536f1f411a10b28655225648ba6f2a9e2f22fd",
    "htilde-zero-n0-text":
        "3618ef69b268c590dfed7b16a9caef931f88d38c2ee6d637712a0a014fc0d6ae",
    "htilde-zero-n0-latex":
        "71b19f85dd15defa86db67ba8f9daef4c006158a0e9db80a256a9fa04754b5e7",
}


@pytest.mark.parametrize("fmt", ["json", "text", "latex"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_compute_output_matches_recorded_digest(case, fmt):
    assert _digest(*CASES[case], fmt) == DIGESTS[f"{case}-{fmt}"]


def test_every_case_is_pinned_in_every_format():
    assert set(DIGESTS) == {f"{c}-{f}" for c in CASES
                            for f in ("json", "text", "latex")}
