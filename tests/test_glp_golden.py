"""`classify` output, byte for byte, against recorded JSON lines.

`data/glp_classify_n2_60.jsonl` holds
``json.dumps(classification_to_dict(classify(...)), sort_keys=True)`` for
n = 2..60 and each alpha below, in that order, as produced while the GLP
Newton polygons were still built from the full coefficients binom(n,j) c_j
(`newton_index(glp_normalized(params))`).  Each classification's
discriminant, computed on access, is also checked against Schur's product.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from glpgalois.glp import GlpParams, classification_to_dict, classify, schur_discriminant

GOLDEN = Path(__file__).parent / "data" / "glp_classify_n2_60.jsonl"
ALPHAS = ("0", "1", "2", "5/3", "-1/2", "-7/3", "1/2", "7/2")
DEGREES = range(2, 61)


def golden_lines() -> dict[str, list[str]]:
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) == len(ALPHAS) * len(DEGREES)
    return {a: lines[i * len(DEGREES):(i + 1) * len(DEGREES)] for i, a in enumerate(ALPHAS)}


@pytest.mark.parametrize("alpha", ALPHAS)
def test_classify_json_matches_golden(alpha):
    for n, want in zip(DEGREES, golden_lines()[alpha]):
        c = classify(GlpParams.from_alpha(n, Fraction(alpha)))
        assert json.dumps(classification_to_dict(c), sort_keys=True) == want, (n, alpha)
        assert c.discriminant == schur_discriminant(n, Fraction(alpha)), (n, alpha)
