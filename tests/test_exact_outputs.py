"""Byte-for-byte pins of the exact route's printed outputs.

The canonical form of every exact polynomial is unique, so any change to
the ring kernel that keeps the arithmetic right keeps these outputs
byte-identical.  The digests are the sha256 of the CLI's stdout, taken
before the kernel's bookkeeping was cut (store, conjugation, negation,
x3 reduction, rotation derivatives, one norm per ket).  The gauge suite
is left out: its floats may differ between numpy builds.  No printed
output reads the x-route density of a charged bundle, so that density,
`curvature_trace_form`, is pinned by the sha256 of its JSON, taken before
the gauge moves of the quadrature were reduced to one path.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from bundle_forge.bundles import curvature_trace_form, projector_from_ket
from bundle_forge.cli import run
from bundle_forge.exact_ring import GaussianRational
from bundle_forge.kets import monopole_ket, tilde_ket2

from conftest import su2_move, tensor_ket, type_zero_ket

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


# the densities of monopoles of charge +-1..+-4 (constant multiples of the
# area form), of tilde, and of psi1 (x) a moved by the SU(2) element
# (3/5, 4i/5), whose density depends on phi
DENSITY_KETS = {
    **{c: (lambda c=c: monopole_ket("minus" if c > 0 else "plus", abs(c)))
       for c in (1, -1, 2, -2, 3, -3, 4, -4)},
    "tilde": tilde_ket2,
    "moved psi1 a": lambda: su2_move(
        tensor_ket(monopole_ket("minus", 1), type_zero_ket()),
        GaussianRational(Fraction(3, 5)), GaussianRational(0, Fraction(4, 5)),
    ),
}

DENSITY_SHA256 = {
    1: "d82375edb8c2cff9431f1e9c123365c7d6f98374f083a5f230dc9c278e76324d",
    -1: "b90d8ac86c061ed577c1f57d6db8b975b90cbbfef38a15a67ad8f76c8c21aac8",
    2: "9b0834c257f745e90999a70271f7e912617f9ad5b5fbbec2566c8ac19badcd7e",
    -2: "0ca41f1812ade93c1176a28a6b8ca15f80aff19358d685acef4296aa65b56536",
    3: "bf323fc1bf815fc7dc80db0e5741570f36244f15e3a8b8e87565505c31b63598",
    -3: "474d27ca56571c8430426d202d8a8d839508475bd0d5db0d945c6394639ab729",
    4: "b9e6f4665a2b9fb69beca20c6c5620bcefa63b35256d1428e3514acb56a084ba",
    -4: "95155606c28ff0edc3ed34b9660ea0d76130597f28cc641bcfc014f19706a7e0",
    "tilde": "9b0834c257f745e90999a70271f7e912617f9ad5b5fbbec2566c8ac19badcd7e",
    "moved psi1 a": "f799ddda9fbf54f07bb9e0977b6408bf5bc47d44a94ff8570846690804ecd58d",
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


@pytest.mark.parametrize("name", list(DENSITY_SHA256), ids=str)
def test_curvature_density_is_byte_identical(name):
    density = curvature_trace_form(projector_from_ket(DENSITY_KETS[name]()))
    digest = hashlib.sha256(json.dumps(density.to_json()).encode()).hexdigest()
    assert digest == DENSITY_SHA256[name]
