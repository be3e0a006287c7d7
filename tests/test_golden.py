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

The refine cases run seeded ``refine-demo`` trainings and hash the
weights file, the curve CSV and what the command prints.

Scope: ``sample``, ``fit --estimator mean`` and the evaluation commands
avoid BLAS products (they use only elementwise ufuncs, sorts and pairwise
sums), but numpy's SIMD exp, log, sin, cos and arccos round differently
with and without AVX-512.  Their digests are therefore keyed by a
fingerprint of those ufuncs' bits.  ``refine-demo`` also goes through the
MLP's matrix products, whose bits depend on the BLAS kernel, so its
digests are keyed by the ufunc fingerprint plus the core name of numpy's
bundled OpenBLAS, and they run on one BLAS thread, since the thread
count moves those bits too.  A host whose key has no entry, or whose
OpenBLAS does not report a core name, skips those cases.  After a
deliberate output change, rewrite the entries of this host, of the
non-AVX-512 kernels and of the Haswell BLAS core with

    PYTHONPATH=src python tests/test_golden.py
    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_golden.py
    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" PYTHONPATH=src python tests/test_golden.py
    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" OPENBLAS_CORETYPE=Haswell \\
        PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import ctypes
import hashlib
import io
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
REFINE_DEMOS = {
    "seed1": ["--seed", "1"],
    "batch3": ["--seed", "1", "--batch-size", "3"],
    "17x13-rs1": ["--seed", "1", "--width", "17", "--height", "13", "--rs", "1.0"],
    "frames4-epochs5-batch2": ["--seed", "1", "--frames", "4", "--epochs", "5", "--batch-size", "2"],
}
REFINE_CASES = [f"refine-demo {name}" for name in REFINE_DEMOS]


def ufunc_fingerprint():
    """Short digest of the float64 transcendental ufuncs' bits on a fixed input."""
    x = np.random.default_rng(0).uniform(-4.0, 4.0, 100_000)
    h = hashlib.sha256()
    with np.errstate(invalid="ignore"):
        for f in (np.exp, np.log, np.sin, np.cos, np.arccos, np.sqrt):
            h.update(f(x).tobytes())
    return h.hexdigest()[:16]


def _openblas():
    """numpy's bundled OpenBLAS as a ctypes library, or None where it is not a scipy-openblas wheel."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            for name, argtypes, restype in (("scipy_openblas_get_corename64_", [], ctypes.c_char_p),
                                            ("scipy_openblas_get_num_threads64_", [], ctypes.c_int),
                                            ("scipy_openblas_set_num_threads64_", [ctypes.c_int], None)):
                getattr(lib, name).argtypes, getattr(lib, name).restype = argtypes, restype
            return lib
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread: GEMM bits also depend on the thread count."""
    lib = _openblas()
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)


def blas_key():
    """Manifest key of the BLAS-dependent cases, or None where numpy's OpenBLAS reports no core name.

    The key is the ufunc fingerprint and the core name (``"SkylakeX"``, ...).
    """
    lib = _openblas()
    return None if lib is None else f"{ufunc_fingerprint()} {lib.scipy_openblas_get_corename64_().decode()}"


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
    if kind == "refine-demo":
        d = Path(directory)
        stdout = io.StringIO()
        with _one_blas_thread(), contextlib.redirect_stdout(stdout):
            assert main(["refine-demo", *REFINE_DEMOS[sample],
                         "--out-weights", str(d / "w.rmlp"), "--out-csv", str(d / "curve.csv")]) == 0
        h = hashlib.sha256()
        for part in ((d / "w.rmlp").read_bytes(), (d / "curve.csv").read_bytes(), stdout.getvalue().encode()):
            h.update(hashlib.sha256(part).digest())
        return h.hexdigest()
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


@pytest.fixture(scope="module")
def golden_blas():
    manifest = json.loads(MANIFEST.read_text())
    key = blas_key()
    if key is None:
        pytest.skip("numpy's OpenBLAS reports no core name")
    if key not in manifest:
        pytest.skip(f"no golden digests for ufunc fingerprint and BLAS core {key}")
    return manifest[key]


@pytest.mark.parametrize("case", CASES)
def test_golden_digest(tmp_path, golden, case):
    assert _digest(tmp_path, case) == golden[case]


@pytest.mark.parametrize("case", REFINE_CASES)
def test_golden_blas_digest(tmp_path, golden_blas, case):
    assert _digest(tmp_path, case) == golden_blas[case]


def test_every_manifest_entry_lists_exactly_the_cases():
    # a ufunc fingerprint alone keys CASES; "<fingerprint> <core>" keys REFINE_CASES
    manifest = json.loads(MANIFEST.read_text())
    assert any(" " in key for key in manifest) and any(" " not in key for key in manifest)
    for key, entry in manifest.items():
        assert sorted(entry) == sorted(REFINE_CASES if " " in key else CASES)


if __name__ == "__main__":
    import tempfile

    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    written = [ufunc_fingerprint()]
    with tempfile.TemporaryDirectory() as d:
        manifest[ufunc_fingerprint()] = {case: _digest(d, case) for case in CASES}
        if blas_key() is not None:
            manifest[blas_key()] = {case: _digest(d, case) for case in REFINE_CASES}
            written.append(blas_key())
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote the digests of {' and '.join(written)} to {MANIFEST}", file=sys.stderr)
