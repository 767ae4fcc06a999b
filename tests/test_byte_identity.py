"""Fixed-seed byte identity of the CLI outputs.

Every input is written out below, and the SHA-256 of every output file is
pinned.  A change to the canonical form, the pipeline's draws or the output
format shows here as a digest mismatch; such a change is made on purpose, by
updating the digests and recording why in CHANGES.md.
"""

import hashlib
from fractions import Fraction

import pytest

from rigidmetrics.cli import main
from rigidmetrics.metric import FiniteMetric, dump_metric

# distances in [1, 2] on a grid of step 1/8: with epsilon 1/2 every point is
# its own block, so the hub path and the independence rows do the work
SPREAD_6 = (
    ["p0", "p1", "p2", "p3", "p4", "p5"],
    {
        (0, 1): "9/8", (0, 2): "3/2", (0, 3): "13/8", (0, 4): "2", (0, 5): "5/4",
        (1, 2): "11/8", (1, 3): "1", (1, 4): "7/4", (1, 5): "15/8",
        (2, 3): "5/4", (2, 4): "9/8", (2, 5): "13/8",
        (3, 4): "3/2", (3, 5): "7/4",
        (4, 5): "11/8",
    },
)

# two clusters of three points with diameter at most 1/32 and one cross
# distance: the blocks get their own gauges and tau components
CLUSTERED_2X3 = (
    ["c0x0", "c0x1", "c0x2", "c1x0", "c1x1", "c1x2"],
    {
        (0, 1): "75/4096", (0, 2): "101/4096", (1, 2): "67/4096",
        (3, 4): "90/4096", (3, 5): "127/4096", (4, 5): "64/4096",
        **{(i, j): "11/8" for i in range(3) for j in range(3, 6)},
    },
)

RIGIDIFY_DIGESTS = {
    "spread-6": (
        "2ff8a5972d6cf27c38041ecc6df7c57351a1ad7cb0d87f91e2ba2820e7b54c68",
        "693536ef323cda1a0c65b8d6c8df2f48081964088d739e3021a96f875e8b7340",
    ),
    "clustered-2x3": (
        "37edf2d385e05980c6a6c09cb160d59815723b6d4df8c159fdd75cb6949c73b1",
        "a7bf4c45e5edbe208820e7742eccdfafd27551bde7cff09e069b1589c4e43e8a",
    ),
}

PRODUCT_DIGEST = "a0a7e432e6bf4b483b6fc0fd5465dbd712099fe2ad336a514a9cc422789ce839"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_metric(path, spec) -> None:
    labels, upper = spec
    values = {key: Fraction(v) for key, v in upper.items()}
    metric = FiniteMetric.from_pair_function(labels, lambda i, j: values[(i, j)])
    path.write_text(dump_metric(metric))


@pytest.mark.parametrize(
    "name, spec, seed",
    [("spread-6", SPREAD_6, 3), ("clustered-2x3", CLUSTERED_2X3, 7)],
)
def test_rigidify_full_bytes(name, spec, seed, tmp_path):
    source = tmp_path / "in.json"
    _write_metric(source, spec)
    out, cert = tmp_path / "out.json", tmp_path / "out.cert.json"
    code = main([
        "--seed", str(seed), "rigidify", str(source), "--epsilon", "1/2",
        "--full", "--out", str(out), "--certificate", str(cert),
    ])
    assert code == 0
    assert (_sha256(out), _sha256(cert)) == RIGIDIFY_DIGESTS[name]


def test_product_bytes(tmp_path):
    out = tmp_path / "product.json"
    code = main([
        "product", "--alphabet", "2", "--length", "3", "--k", "1",
        "--out", str(out),
    ])
    assert code == 0
    assert _sha256(out) == PRODUCT_DIGEST
