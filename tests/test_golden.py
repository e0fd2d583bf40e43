"""Golden pins: digests of outputs that must not change by a single bit.

Each digest is the SHA-256 of a text form of an output, frozen from the
release before character tables were stored as exponents over the group
exponent.  The pinned outputs are the JSON form of every character mod a
few moduli (the wire format of ``characters --format json``), the order of
``enumerate_real_characters`` (which ``-k`` and the survey's ``char_index``
index), the ``repr`` of ``evaluate`` for whole groups at three points, and
the three stdout formats of ``characters 24``.  Moduli 13 and 91 have
characters whose order d leaves L / d = 3 over the group exponent L = 12;
at L = 36 and L = 60 (moduli 37 and 61) some roots exp(2 pi i e / L) round
differently from the same root written exp(2 pi i k / d) in lowest terms,
so those pins fail if a root is converted from the unreduced exponent.
"""

import hashlib
import io
import json

import pytest

from lseries_lab.characters import enumerate_characters, enumerate_real_characters
from lseries_lab.cli import main
from lseries_lab.lseries import evaluate


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def json_digest(chars) -> str:
    return digest(json.dumps([c.to_json_dict() for c in chars]))


def evaluation_digest(q: int) -> str:
    lines = []
    for chi in enumerate_characters(q):
        for s in (1, complex(0.5, 14.0), complex(0.5, 700.0)):
            try:
                lines.append(repr(evaluate(chi, s)))
            except ValueError as exc:
                lines.append(f"{type(exc).__name__}: {exc}")
    return digest("\n".join(lines))


def cli_digest(*argv) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return digest(f"{code}\n{out.getvalue()}")


ENUMERATION = {
    13: "aab5790322eb86d5f16acca694cecbe040de2e5ba6dedc9017b3a4dad922fac6",
    91: "95ee40f593c9ec4d96c25c227994e1be054f04cd8c4cf98a58e667486eb9aa6c",
    720: "38fb6e801f757046f98663f99b87fa5ba193044ec2905ae95c4412471452a648",
}
REAL_UP_TO_200 = "d3791495f4b67c8adf6717bfbbf0d4aa95474b4a2ca640880ede5cf2fcfdf8f2"
EVALUATIONS = {
    13: "25ba9288d1ed5d95f90a80890a7b68839a6b1ea6e0fc92fc6c16031454fb5839",
    37: "30fec55e51ce48ace7f2b3ad7d71ab04eefcc24a8932cff6437a3f6cbe3de4fe",
    61: "2dd59ab440bf1e6d17f17f6eeb9aa20bfc94241f76e3a4c1785d4973d09c082c",
    91: "62628038e9d9c6d7769f9d5fd3d1100c0a6469e559e200bcc6b86e7a36fd76ab",
    168: "95d4ccc5d7c3a1e1ff70864ae8fc86a9f34a987a906aa4c8f2932093c8caad6c",
}
CHARACTERS_24 = {
    "csv": "3589127391c12e8104b2a638fbc7d47701fca0a8cdddced1f9683ae20500baa5",
    "json": "24704f101ff0d2c32304ca87ba118b503f40ae55ac578f6d6ad37d82b68baac0",
    "table": "e8ef74ef5fc3f8cf83c37c0f72a47312bcf7fe0ad347c4d3587d64337aaea205",
}


@pytest.mark.parametrize("q", sorted(ENUMERATION))
def test_enumeration_json_is_pinned(q):
    assert json_digest(enumerate_characters(q)) == ENUMERATION[q]


def test_real_enumeration_order_is_pinned():
    chars = [chi for q in range(1, 201) for chi in enumerate_real_characters(q)]
    assert len(chars) == 760
    assert json_digest(chars) == REAL_UP_TO_200


@pytest.mark.parametrize("q", sorted(EVALUATIONS))
def test_group_evaluations_are_pinned(q):
    assert evaluation_digest(q) == EVALUATIONS[q]


@pytest.mark.parametrize("fmt", sorted(CHARACTERS_24))
def test_characters_command_is_pinned(fmt):
    assert cli_digest("characters", "24", "--format", fmt) == CHARACTERS_24[fmt]
