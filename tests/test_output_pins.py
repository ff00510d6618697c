"""Byte-for-byte pins of the program's outputs.

Each pin is the sha256 of output text: every CLI artifact of every file in
``fixtures/``, the diagram JSON of the criterion-2 random corpus, and the
erosion distances and pointwise sums of seeded random generator-set
functions with mixed endpoint closures.  A refactoring must keep them all.
When an output change is intended, print the new digests with

    PYTHONPATH=src python tests/test_output_pins.py

and replace ``PINS`` with them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

import pytest

from cuplength import cli
from cuplength.functions import CupFunction, Interval, erosion_distance, pointwise_sum
from conftest import random_cup_function

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")
FIXTURE_FILES = sorted(os.listdir(FIXTURES))
ARTIFACTS = (
    ("barcode", "json"),
    ("barcode", "svg"),
    ("cup-diagram", "json"),
    ("cup-diagram", "csv"),
    ("cup-diagram", "svg"),
    ("cup-function", "json"),
    ("cup-function", "svg"),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fixture_digests(name: str) -> dict[str, str]:
    out = {}
    for command, fmt in ARTIFACTS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main([command, os.path.join(FIXTURES, name), "--format", fmt]) == 0
        out[f"{command}.{fmt}"] = _sha256(buf.getvalue())
    return out


def corpus_digest() -> str:
    from test_acceptance import corpus

    return _sha256("".join(cli.diagram_to_json(diagram) + "\n" for _, _, diagram, _ in corpus()))


def _random_function(rng: random.Random) -> CupFunction:
    f = random_cup_function(rng, max_gens=5)
    extra = []
    if rng.random() < 0.3:
        extra.append((Interval.point(rng.randint(0, 16) / 2.0), rng.randint(1, 3)))
    if rng.random() < 0.3:
        a = rng.randint(0, 16) / 2.0
        extra.append((Interval.open(a, a + rng.randint(1, 6) / 2.0), rng.randint(1, 3)))
    return CupFunction.from_pairs(list(f.generators) + extra)


def functions_digest(pairs: int = 300) -> str:
    rng = random.Random(55001)
    lines = []
    for _ in range(pairs):
        f, g = _random_function(rng), _random_function(rng)
        lines.append(f"{erosion_distance(f, g)!r} {cli.function_to_json(pointwise_sum(f, g))}\n")
    return _sha256("".join(lines))


def current_digests() -> dict:
    return {
        "fixtures": {name: fixture_digests(name) for name in FIXTURE_FILES},
        "corpus": corpus_digest(),
        "functions": functions_digest(),
    }


PINS = {
    "corpus": "5b24a739bfc1547dd2dd4c91a3d943a4f0687105d2de8cf1676fcaac31293077",
    "functions": "ad1a2e3726d8cc023c0c6d238d3864c6f250234dc73ef35a68b223fe6a5a67a9",
    "fixtures": {
        "filled_triangle.txt": {
            "barcode.json": "32d7b25bb4d056d099df8ccb4c3ff92678bacf8403925d3763684002a01e4b7b",
            "barcode.svg": "347cfb375bb5c5cc467b4989c04812317dd0e84fe82204dffc523743381dca54",
            "cup-diagram.csv": "4d5ca38736b752be881610830bb96ff2c8de4bf4f6b11e20e8ccc3ee9806074e",
            "cup-diagram.json": "1d945a1dc8f83d34d75fc3f00703dbcc1df07b4e4aabbd5cfba6179c02835979",
            "cup-diagram.svg": "9ac7ff8900a62e4a83115cc40f5bd43851435e5fd45998e21e5b7640ec624055",
            "cup-function.json": "9a5403bf19104dbf021aebea6106613882a0fdb1336b140d3c4f35a1aaf99b55",
            "cup-function.svg": "eca36dace704e32e0e5a95059fc85bfd1b966d7a981ef88a9b21f14431957560",
        },
        "hollow_triangle.txt": {
            "barcode.json": "3caf1b6ccebafbba7931263f3c18708bd182cdfeb50ea853a8d304b153d509ae",
            "barcode.svg": "fca0436834408e2f24a1f0ac5b22fafb7371a1028567ba0b5eb009a9816c5b09",
            "cup-diagram.csv": "41df7ed1953ac3cc1d318a95f4f7b485e0e0a24be5cddb2eeab2470d09293e64",
            "cup-diagram.json": "01ff7fc9c3b2dbe25884b0751b0c805f6c66127319fba05243f3aed747b6eaa1",
            "cup-diagram.svg": "64b4249ef80b757499d60a4a01a1c3aadffed12af76a92121ee050386ae4c034",
            "cup-function.json": "72c366823089b18546d759bde0b73735af68e05c474de7ac3664897f88cce882",
            "cup-function.svg": "4cc79b95bb143374e8a59d3b22005b9fef019f2edd029381babaffb0d2ce514f",
        },
        "klein_staged.txt": {
            "barcode.json": "0eedcaf5746e8122826140adfdd7ced982ac1e65f9771be105412044bfbf9838",
            "barcode.svg": "6667851ec8d0e816b7530789b32cf14216cfa036a60d62a5bd4465aba3d8a24b",
            "cup-diagram.csv": "02717e151e1e4aa59403bc6935ba1f3bc8b42b168de216425580d02cb11e65af",
            "cup-diagram.json": "db9ba4f14683d3e9876c0f2c5427eb82863f5ad39cdac892d477e732c22dd40f",
            "cup-diagram.svg": "0ef98d8859661512a93cd88ec2c30dd6186d883dfb772c4cd0d3e783cb277a36",
            "cup-function.json": "d5d652890a8a6849065179f091612892d6c12ed4bbd810467ecc6ace8deb8b4d",
            "cup-function.svg": "7387775a63e3979a544dcacde1be265fac1de811aea21f529a6bbfda0eef9396",
        },
        "projective_plane_6.txt": {
            "barcode.json": "18e5f8110bedfec00b36f1a62764977c351de7024949fb32555800d85095a81a",
            "barcode.svg": "c9a7e978204ee56148848837290ccf04647ae3f8ac96e752aa0e3013d67bea6d",
            "cup-diagram.csv": "b6a3fe2e86de4d8795fc2360abf4c90fc50908fdc33bec55f5d90047cb4926f5",
            "cup-diagram.json": "f048b791adc48b3c2130c2c86ab54c65056b13c16dd46cf474202db7131293e8",
            "cup-diagram.svg": "abcf5c72c3d52b6df58b7d77024704927e81f6f744f72982cbb695e49cc4a278",
            "cup-function.json": "b3fe0a9e0856639850e7de3c0a25c58d1f0ea018c195c6b6f6881d15c423cf3f",
            "cup-function.svg": "ff1364bd15f775c1c7747664aaf484daea5aaf14d3fab76529d096577ac476a7",
        },
        "torus_7.txt": {
            "barcode.json": "6d5828b2713fac62b6e00bbec6cd5c35a63e14dc90957ad131b75a9d4d6ebed6",
            "barcode.svg": "37a2c00dc884511e5cdf104e343817e8421e61f698e0abfb61175262813b4b62",
            "cup-diagram.csv": "b6a3fe2e86de4d8795fc2360abf4c90fc50908fdc33bec55f5d90047cb4926f5",
            "cup-diagram.json": "f048b791adc48b3c2130c2c86ab54c65056b13c16dd46cf474202db7131293e8",
            "cup-diagram.svg": "abcf5c72c3d52b6df58b7d77024704927e81f6f744f72982cbb695e49cc4a278",
            "cup-function.json": "b3fe0a9e0856639850e7de3c0a25c58d1f0ea018c195c6b6f6881d15c423cf3f",
            "cup-function.svg": "ff1364bd15f775c1c7747664aaf484daea5aaf14d3fab76529d096577ac476a7",
        },
        "two_disks.txt": {
            "barcode.json": "7e7cf27986bdd843766cf25860b4b9b15ab684ee8cb84f941699aff0a0e15b19",
            "barcode.svg": "1587ecb701ede43347ee8819388818abb75bb837bd53cc621e47573e54221479",
            "cup-diagram.csv": "90683b686160018aa3c48ec5317a0063e1934734cb81eab13a920a81b3ca3601",
            "cup-diagram.json": "8d14b2f17916b8bf12cf2cfeca593c936468951640f4bf0d95b06cf4b710570f",
            "cup-diagram.svg": "f7f70f77142424416ceea536f92bd78fd74d1d8a2d2278b81e8ef7fc93d40c44",
            "cup-function.json": "84b5b08ccf91a3178899ff80bee3e25363f52e830ff2e4866a6962fb94638ba6",
            "cup-function.svg": "f43cad5a12eef5c1c5aa3a2e0e3b8e32002a2b980718e94427e427241fb205f5",
        },
        "unit_square.csv": {
            "barcode.json": "dfb525b1a0978a8f9ffc93ee6ccd9a9b7519981b87402d2f24d7307fc79176e0",
            "barcode.svg": "1de565b2ff2fb3b2b977bc967cd66d879f13c255dfe701726fd15dc8e50176eb",
            "cup-diagram.csv": "cae5c7fe9098a0ccf77c39c5d52bed8e85c84ae1e0c2640ecbf726324cb03c8e",
            "cup-diagram.json": "76b5e3df47d61a152e1e02076a73ad16bc8de5a31ab898e802830bbf4f4e3d51",
            "cup-diagram.svg": "479a347de7387c8522b193f226d23c94b8a9e0b5b7cb3d94a6510d11c9c0b8ff",
            "cup-function.json": "8b33a063b05c36f14a606abe6aa2ec7c9a329f6a23027ed79fd3062510786d08",
            "cup-function.svg": "17a21851d9b1b0e0b90905aae99558f56141163c45e4bcd365ec2f2b07f72174",
        },
    },
}


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_fixture_artifacts_are_pinned(name):
    assert fixture_digests(name) == PINS["fixtures"][name]


def test_corpus_diagrams_are_pinned():
    assert corpus_digest() == PINS["corpus"]


def test_erosion_and_pointwise_sum_are_pinned():
    assert functions_digest() == PINS["functions"]


if __name__ == "__main__":
    print(json.dumps(current_digests(), indent=1, sort_keys=True))
