"""Golden SHA-256 digests of seeded CLI outputs.

Each case runs ``angmf`` commands in-process and hashes the files the
last one writes; the digest must equal the one checked in next to this
file in ``golden_digests.json``.  A change that moves any output bit fails
here, so it has to update the manifest and say why.

The evaluation cases run ``eval``, ``sparsify`` (every metric, estimated
and oracle curves) and ``select-pixels`` on one seeded 61x47 map triple
with NaN pixels in all three maps and kappa on a coarse grid, so the
uncertainty ranking has long runs of ties.  The maps are written with
plain numpy, not with the package's own writers.

Scope: the cases avoid BLAS products (``sample``, ``fit --estimator
mean`` and the evaluation commands use only elementwise ufuncs, sorts and
pairwise sums), but numpy's SIMD
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
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from angmf.cli import main
from angmf.metrics import METRIC_NAMES

MANIFEST = Path(__file__).with_name("golden_digests.json")
SAMPLES = {
    f"{dist}-k{kappa}-mu{i}": ["sample", "--dist", dist, "--mu", mu, "--kappa", kappa, "--n", "2000", "--seed", "7"]
    for dist in ("angmf", "vonmf")
    for kappa in ("0.5", "5", "50")
    for i, mu in enumerate(("0,0,1", "2,3,6"))
}
MAP_CASES = ["eval maps", *(f"sparsify-{metric} maps" for metric in METRIC_NAMES), "select-pixels maps"]
CASES = [f"{kind} {sample}" for kind in ("sample", "fit-mean") for sample in SAMPLES] + MAP_CASES


def ufunc_fingerprint():
    """Short digest of the float64 transcendental ufuncs' bits on a fixed input."""
    x = np.random.default_rng(0).uniform(-4.0, 4.0, 100_000)
    h = hashlib.sha256()
    with np.errstate(invalid="ignore"):
        for f in (np.exp, np.log, np.sin, np.cos, np.arccos, np.sqrt):
            h.update(f(x).tobytes())
    return h.hexdigest()[:16]


def _write_map(path, magic, data):
    height, width = data.shape[:2]
    path.write_bytes(magic + struct.pack("<II", width, height) + data.astype("<f4").tobytes())


def _write_maps(directory):
    """The seeded pred, gt and kappa maps of the evaluation cases; returns their paths."""
    gen = np.random.default_rng(2021)
    shape = (47, 61)
    gt = gen.standard_normal(shape + (3,))
    gt /= np.sqrt(np.sum(gt * gt, axis=-1, keepdims=True))
    pred = gt + 0.3 * gen.standard_normal(shape + (3,))
    pred /= np.sqrt(np.sum(pred * pred, axis=-1, keepdims=True))
    kappa = np.round(gen.uniform(0.0, 300.0, shape) / 25.0) * 25.0
    maps = {"pred": pred.astype(np.float32), "gt": gt.astype(np.float32), "kappa": kappa.astype(np.float32)}
    paths = {}
    for name, share in (("pred", 0.04), ("gt", 0.05), ("kappa", 0.03)):
        maps[name][gen.random(shape) < share] = np.nan
        paths[name] = Path(directory) / f"{name}.map"
        _write_map(paths[name], b"SKMP1" if name == "kappa" else b"SNMP1", maps[name])
    return paths


def _map_outputs(directory, kind):
    """Run one evaluation command on the seeded maps; returns the paths it writes."""
    d = Path(directory)
    maps = _write_maps(d)
    if kind == "eval":
        argv, outs = ["eval", "--pred", maps["pred"], "--gt", maps["gt"], "--out-json", d / "eval.json"], ["eval.json"]
    elif kind == "select-pixels":
        argv, outs = ["select-pixels", "--kappa-map", maps["kappa"], "--seed", "7", "--out-csv", d / "sel.csv"], ["sel.csv"]
    else:
        argv = ["sparsify", "--pred", maps["pred"], "--gt", maps["gt"], "--kappa", maps["kappa"],
                "--metric", kind[len("sparsify-"):], "--out-csv", d / "curve.csv", "--out-json", d / "curve.json"]
        outs = ["curve.csv", "curve.oracle.csv", "curve.json"]
    assert main([str(a) for a in argv]) == 0
    return [d / name for name in outs]


def _digest(directory, case):
    """Run one case in ``directory``; returns the SHA-256 of its output files."""
    kind, sample = case.split()
    if sample == "maps":
        h = hashlib.sha256()
        for path in _map_outputs(directory, kind):
            h.update(path.read_bytes())
        return h.hexdigest()
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
