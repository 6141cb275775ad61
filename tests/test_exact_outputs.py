"""Byte-for-byte pins of the exact route's printed outputs.

The canonical form of every exact polynomial is unique, so any change to
the ring kernel that keeps the arithmetic right keeps these outputs
byte-identical.  The digests are the sha256 of the CLI's stdout, taken
before the kernel's bookkeeping was cut (store, conjugation, negation,
x3 reduction, rotation derivatives, one norm per ket).  The gauge suite
is left out: its floats may differ between numpy builds.
"""

import hashlib

import pytest

from bundle_forge.cli import run

BUILD_JSON_SHA256 = {
    ("monopole", None): "eef3937927f7534803cc2a3e4907f0ee075f2d4120e85aa3c6825a3ed73a522c",
    ("tilde", None): "287a4d02d2a9cf33ad27e790364dedce7777cc1b4ce3c990b0c553ca71eb7952",
    ("normal", None): "9c4f1cbd5637d26db826aff6e95714edcc14efb6f166e27adb7fed1198012109",
    ("tangent", None): "2b3387882613c266d6187f7b6c2c0ddb315ae3ee5becb278cecb846b1317d1c7",
    ("realform", None): "eed1a4f99fd2bcbdb04c855d5bbef207b4c08cfe5ddf47c7d9d80ae2c6ccb8c5",
    ("monopole", 1): "eef3937927f7534803cc2a3e4907f0ee075f2d4120e85aa3c6825a3ed73a522c",
    ("monopole", 2): "1c62564b9c26f65dd4efa38a09053240d472655dfa8ce0bc6ca8cfaee4faef32",
    ("monopole", 3): "498c7a93c7f7c4093e8e03aa326a75f9c122c8b8e5ac6f5f9d1ce2408403fd87",
    ("monopole", 4): "71bab6242179d968018f1a5ee8bcdb881d62f36088426bafce3862009817e7b3",
    ("monopole", 5): "2c5eae385232bcb717787f627e9e714b132da55ecb561b6052975626c5fd9987",
    ("monopole", 6): "aa8df49682f94b4a0aae32f2eb1e449cbf7a24a05b34bf7c94d8c2dc6704fb76",
    ("monopole", 7): "5137cfc9f8d53f257baa99b024719b7ad49740f25d63e4a23e1ce07f5fdebe05",
    ("monopole", 8): "c4edc897a84d0d95b324c3fef16be8cc05bd53369fb47026a5bbd09d4e862204",
    ("monopole", -1): "5e7bead405e5aa4f7acb81d37e82b095f6228d73a855063243b61cc0ceb9c033",
    ("monopole", -2): "407424b8ddf557a0bdee5f16d513b0f887e09bebed898aa249b66310b3cbf19c",
    ("monopole", -3): "c7bd4a9e8bee59fc9517b9cb021a820878a36087a3486b36fde62b82aad62088",
    ("monopole", -4): "4af326d4ac58dd332f3e74a51b2d1734e0786b952eb7ac5f8af0d33817cfb6c4",
    ("monopole", -5): "1f4d08d41c84661c3819f42a9cf3d792b27c6793ce41b6fe2de63adc3b524bd6",
    ("monopole", -6): "3a05db151415b398ec175d3683ef28ad2aaff7de18e6697ea8e9bd2f5f35876b",
    ("monopole", -7): "63a20f302fdb5b6019880d11de35b7a2f13bb85b7abc1696be8c790c108a5d4e",
    ("monopole", -8): "57eacb2c8170a1d9f0bb2ebc97d4a62fadc1c3b6fc30b393c87f80bdbdf3cf79",
}

VERIFY_SHA256 = {
    "axioms": "8776560bc7931f75da4a8b72528a3618edaf1096fd9028a56405ccb6757774b9",
    "curvature": "0feafb5e4b989b1a17adb88888780256e27ea362f707d7fb08966ed1b9833097",
    "isometry": "740aab9ea7e321b62a410b91c5672d0c98d4b89d1296b848ec5e7e67dad1a1dc",
    "tangent": "2011b7a1d6f3d8b38ad95c1e17b05c6c995deb3565ec7d52a85a247bcf3a070b",
}


def _stdout_sha256(capsys, *argv) -> str:
    assert run(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("family, charge", sorted(BUILD_JSON_SHA256, key=str))
def test_build_json_is_byte_identical(capsys, family, charge):
    argv = ["build", "--json", "--family", family]
    if charge is not None:
        argv += ["--charge", str(charge)]
    assert _stdout_sha256(capsys, *argv) == BUILD_JSON_SHA256[family, charge]


@pytest.mark.parametrize("suite", sorted(VERIFY_SHA256))
def test_exact_suite_output_is_byte_identical(capsys, suite):
    digest = _stdout_sha256(capsys, "verify", "--suite", suite, "--max-charge", "5")
    assert digest == VERIFY_SHA256[suite]
