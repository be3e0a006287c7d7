"""Golden SHA-256 digests of seeded CLI outputs.

Each case runs ``angmf`` commands in-process and hashes the file the last
one writes; the digest must equal the one checked in next to this file in
``golden_digests.json``.  A change that moves any output bit fails here,
so it has to update the manifest and say why.

Scope: the cases avoid BLAS products (``sample`` and ``fit --estimator
mean`` use only elementwise ufuncs and pairwise sums), but numpy's SIMD
exp, log, sin, cos and arccos round differently with and without AVX-512.
The manifest is therefore keyed by a fingerprint of those ufuncs' bits,
and a host whose fingerprint has no entry skips the cases.  After a
deliberate output change, rewrite the entry of this host, and of the
non-AVX-512 kernels, with

    PYTHONPATH=src python tests/test_golden.py
    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from angmf.cli import main

MANIFEST = Path(__file__).with_name("golden_digests.json")
SAMPLES = {
    f"{dist}-k{kappa}-mu{i}": ["sample", "--dist", dist, "--mu", mu, "--kappa", kappa, "--n", "2000", "--seed", "7"]
    for dist in ("angmf", "vonmf")
    for kappa in ("0.5", "5", "50")
    for i, mu in enumerate(("0,0,1", "2,3,6"))
}
CASES = [f"{kind} {sample}" for kind in ("sample", "fit-mean") for sample in SAMPLES]


def ufunc_fingerprint():
    """Short digest of the float64 transcendental ufuncs' bits on a fixed input."""
    x = np.random.default_rng(0).uniform(-4.0, 4.0, 100_000)
    h = hashlib.sha256()
    with np.errstate(invalid="ignore"):
        for f in (np.exp, np.log, np.sin, np.cos, np.arccos, np.sqrt):
            h.update(f(x).tobytes())
    return h.hexdigest()[:16]


def _digest(directory, case):
    """Run one case in ``directory``; returns the SHA-256 of its output file."""
    kind, sample = case.split()
    path = Path(directory) / "samples.csv"
    assert main(SAMPLES[sample] + ["--out-csv", str(path)]) == 0
    if kind == "fit-mean":
        src, path = path, Path(directory) / "fit.json"
        assert main(["fit", "--samples-csv", str(src), "--estimator", "mean", "--out-json", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    manifest = json.loads(MANIFEST.read_text())
    fingerprint = ufunc_fingerprint()
    if fingerprint not in manifest:
        pytest.skip(f"no golden digests for ufunc fingerprint {fingerprint}")
    return manifest[fingerprint]


@pytest.mark.parametrize("case", CASES)
def test_golden_digest(tmp_path, golden, case):
    assert _digest(tmp_path, case) == golden[case]


def test_every_manifest_entry_lists_exactly_the_cases():
    manifest = json.loads(MANIFEST.read_text())
    assert manifest and all(sorted(entry) == sorted(CASES) for entry in manifest.values())


if __name__ == "__main__":
    import tempfile

    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as d:
        manifest[ufunc_fingerprint()] = {case: _digest(d, case) for case in CASES}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote the digests of ufunc fingerprint {ufunc_fingerprint()} to {MANIFEST}", file=sys.stderr)
