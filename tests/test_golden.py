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
weights file, the curve CSV and what the command prints.  The fit cases
run ``fit --estimator median|mle`` on a clean sample CSV and on one with
a 20% second cluster, and the simulate cases hash ``simulate-boundary``
reports.  The ``expected-error`` case hashes its printed lines and its
JSON at kappa = 0, 1e-17, 5 and 1e308.

The error cases pin the exit code and the one stderr line of each
failing input the CLI reports: argparse rejections, domain and shape
checks, format errors with their byte offsets and numerical failures.
They are written out below rather than hashed, since their text does not
vary with the ufunc or BLAS kernel; a deliberate message change edits
them by hand.

Scope: every command but ``refine-demo`` avoids BLAS (elementwise ufuncs,
sorts and pairwise sums only; 3-vector dots and norms go through
``sphere.dot3``), but numpy's SIMD exp, log, sin, cos and arccos round
differently with and without AVX-512.  Those digests are therefore keyed
by a fingerprint of the ufuncs' bits.  ``refine-demo`` also goes through
the MLP's matrix products, whose bits depend on the BLAS kernel, so its
digests are keyed by the ufunc fingerprint plus the core name of numpy's
bundled OpenBLAS, and they run on one BLAS thread, since the thread count
moves the matrix products' bits too.  A host whose key has no entry, or
whose OpenBLAS does not report a core name, skips the ``refine-demo``
cases.  After a deliberate output change, rewrite the entries of this
host, of the non-AVX-512 kernels and of the Haswell BLAS core with

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
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import angmf
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
EXPECTED_ERROR_KAPPAS = ["0", "1e-17", "5", "1e308"]
REFINE_DEMOS = {
    "seed1": ["--seed", "1"],
    "batch3": ["--seed", "1", "--batch-size", "3"],
    "17x13-rs1": ["--seed", "1", "--width", "17", "--height", "13", "--rs", "1.0"],
    "frames4-epochs5-batch2": ["--seed", "1", "--frames", "4", "--epochs", "5", "--batch-size", "2"],
}
# each fit CSV is the concatenation of these ``sample`` runs' rows
FIT_CSVS = {
    "clean": [["--mu", "2,3,6", "--kappa", "5", "--n", "2000", "--seed", "7"]],
    "contaminated": [["--mu", "2,3,6", "--kappa", "50", "--n", "1600", "--seed", "7"],
                     ["--mu", "6,-3,2", "--kappa", "50", "--n", "400", "--seed", "8"]],
}
SIMULATIONS = {
    "seed3": ["--trials", "20", "--samples", "500", "--seed", "3"],
    "sep30-c40-k5": ["--separation-deg", "30", "--contamination", "0.4", "--jitter-kappa", "5",
                     "--trials", "10", "--samples", "300", "--seed", "4"],
}
CASES = ([f"{kind} {sample}" for kind in ("sample", "fit-mean") for sample in SAMPLES] + MAP_CASES
         + ["expected-error kappas"]
         + [f"fit-{est} {csv}" for est in ("median", "mle") for csv in FIT_CSVS]
         + [f"simulate-boundary {name}" for name in SIMULATIONS])
BLAS_CASES = [f"refine-demo {name}" for name in REFINE_DEMOS]


def _map_bytes(magic, width, height, values):
    """An SNMP1/SKMP1 file image written with plain numpy."""
    return magic + struct.pack("<II", width, height) + np.asarray(values, dtype="<f4").tobytes()


UNIT_PAIR = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0]
ERROR_FILES = {
    "pair.csv": b"0,0,1\n0,0,-1\n",
    "tiny.csv": b"1e-320,0,0\n",
    "zero.csv": b"x,y,z\n0,0,1\n0,0,0\n",
    "cols.csv": b"x,y,z\n0,0,1\n1,2\n",
    "word.csv": b"0,0,1\n0,one,1\n",
    "inf.csv": b"0,0,1\ninf,0,1\n",
    "header.csv": b"x,y,z\n",
    "n.map": _map_bytes(b"SNMP1", 2, 1, UNIT_PAIR),
    "n3.map": _map_bytes(b"SNMP1", 3, 1, UNIT_PAIR + [0.0, 1.0, 0.0]),
    "magic.map": _map_bytes(b"SNMP2", 2, 1, UNIT_PAIR),
    "short.map": b"SNMP1\x02\x00",
    "size.map": _map_bytes(b"SNMP1", 2, 2, UNIT_PAIR),
    "drift.map": _map_bytes(b"SNMP1", 2, 1, [0.0, 0.0, 1.0, 1.0, 1.0, 0.0]),
    "mixed.map": _map_bytes(b"SNMP1", 2, 1, [0.0, 0.0, 1.0, np.nan, 0.0, 1.0]),
    "k.map": _map_bytes(b"SKMP1", 2, 1, [1.0, 2.0]),
    "k3.map": _map_bytes(b"SKMP1", 3, 1, [1.0, 2.0, 3.0]),
    "kneg.map": _map_bytes(b"SKMP1", 2, 1, [1.0, -2.0]),
    "kinf.map": _map_bytes(b"SKMP1", 2, 1, [np.inf, 1.0]),
}
SAMPLE = ["sample", "--mu", "0,0,1", "--kappa", "1", "--n", "3", "--out-csv", "o.csv"]
SELECT = ["select-pixels", "--kappa-map", "k.map", "--out-csv", "o.csv"]
SIMULATE = ["simulate-boundary", "--trials", "2", "--samples", "10"]
REFINE = ["refine-demo", "--width", "8", "--height", "8", "--frames", "2", "--epochs", "2"]
# name: (argv, exit code, the whole of stderr but its newline), run where ERROR_FILES were written
ERRORS = {
    "sample-seed-word": (SAMPLE + ["--seed", "abc"], 2,
                         "angmf sample: error: argument --seed: invalid int value: 'abc'"),
    "sample-seed-negative": (SAMPLE + ["--seed", "-1"], 2,
                             "angmf sample: error: argument --seed: must lie in [0, 2**64): '-1'"),
    "sample-seed-2^64": (SAMPLE + ["--seed", "18446744073709551616"], 2,
                         "angmf sample: error: argument --seed: must lie in [0, 2**64): '18446744073709551616'"),
    "sample-mu-short": (SAMPLE + ["--mu", "1,2", "--seed", "1"], 2,
                        "angmf sample: error: argument --mu: expected 'x,y,z', got '1,2'"),
    "sample-mu-zero": (SAMPLE + ["--mu", "0,0,0", "--seed", "1"], 2,
                       "angmf sample: error: argument --mu: direction has zero length: '0,0,0'"),
    "sample-kappa-negative": (SAMPLE + ["--kappa", "-1", "--seed", "1"], 2,
                              "angmf sample: error: argument --kappa: must be finite and >= 0: '-1'"),
    "sample-kappa-nan": (SAMPLE + ["--kappa", "nan", "--seed", "1"], 2,
                         "angmf sample: error: argument --kappa: must be finite and >= 0: 'nan'"),
    "sample-n-negative": (SAMPLE + ["--n", "-1", "--seed", "1"], 2, "error: cannot draw -1 samples"),
    "sample-vonmf-n-negative": (SAMPLE + ["--dist", "vonmf", "--n", "-2", "--seed", "1"], 2,
                                "error: cannot draw -2 samples"),
    "fit-missing-file": (["fit", "--samples-csv", "nope.csv"], 2,
                         "angmf fit: error: argument --samples-csv: no such file: 'nope.csv'"),
    "fit-tol-zero": (["fit", "--samples-csv", "pair.csv", "--tol", "0"], 2,
                     "angmf fit: error: argument --tol: must be finite and > 0: '0'"),
    "fit-columns": (["fit", "--samples-csv", "cols.csv"], 3,
                    "error: cols.csv: expected 3 columns, got 2 (byte offset 12)"),
    "fit-non-numeric": (["fit", "--samples-csv", "word.csv"], 3,
                        "error: word.csv: non-numeric field in '0,one,1' (byte offset 6)"),
    "fit-non-finite": (["fit", "--samples-csv", "inf.csv"], 3,
                       "error: inf.csv: non-finite field in 'inf,0,1' (byte offset 6)"),
    "fit-zero-vector": (["fit", "--samples-csv", "zero.csv"], 2, "error: zero vector has no direction"),
    "fit-no-rows": (["fit", "--samples-csv", "header.csv", "--estimator", "median"], 2, "error: no samples"),
    "fit-mean-antipodal": (["fit", "--samples-csv", "pair.csv", "--estimator", "mean"], 4,
                           "error: sample directions cancel out"),
    "fit-mle-kappa-ceiling": (["fit", "--samples-csv", "tiny.csv", "--estimator", "mle"], 4,
                              "error: mle stopped at the kappa ceiling 1000000.0 after 1 iterations"),
    "eval-bad-magic": (["eval", "--pred", "magic.map", "--gt", "n.map"], 3,
                       "error: magic.map: bad magic b'SNMP2', expected b'SNMP1' (byte offset 0)"),
    "eval-short-header": (["eval", "--pred", "n.map", "--gt", "short.map"], 3,
                          "error: short.map: truncated header (byte offset 7)"),
    "eval-payload-size": (["eval", "--pred", "size.map", "--gt", "n.map"], 3,
                          "error: size.map: payload is 24 bytes, expected 48 (byte offset 37)"),
    "eval-not-unit": (["eval", "--pred", "drift.map", "--gt", "n.map"], 3,
                      "error: drift.map: pixel 1 is not unit length (byte offset 25)"),
    "eval-mixed-nan": (["eval", "--pred", "n.map", "--gt", "mixed.map"], 3,
                       "error: mixed.map: pixel 1 mixes NaN and finite components (byte offset 25)"),
    "eval-shape-mismatch": (["eval", "--pred", "n.map", "--gt", "n3.map"], 2,
                            "error: map shapes differ: (1, 2, 3) vs (1, 3, 3)"),
    "sparsify-kappa-shape": (["sparsify", "--pred", "n.map", "--gt", "n.map", "--kappa", "k3.map"], 3,
                             "error: kappa map (1, 3) does not match normal maps (byte offset 5)"),
    "sparsify-kappa-negative": (["sparsify", "--pred", "n.map", "--gt", "n.map", "--kappa", "kneg.map"], 3,
                                "error: kneg.map: pixel 1 has kappa -2.0 (byte offset 17)"),
    "select-pixels-rs": (SELECT + ["--rs", "2", "--seed", "1"], 2, "error: r_s must lie in (0, 1], got 2.0"),
    "select-pixels-kappa-inf": (["select-pixels", "--kappa-map", "kinf.map", "--out-csv", "o.csv", "--seed", "1"], 3,
                                "error: kinf.map: pixel 0 has kappa inf (byte offset 13)"),
    "select-pixels-seed-negative": (SELECT + ["--seed", "-5"], 2,
                                    "angmf select-pixels: error: argument --seed: must lie in [0, 2**64): '-5'"),
    "simulate-contamination": (SIMULATE + ["--contamination", "0.5", "--seed", "1"], 2,
                               "error: contamination must lie in [0, 0.5), got 0.5"),
    "simulate-jitter-zero": (SIMULATE + ["--jitter-kappa", "0", "--seed", "1"], 2,
                             "error: jitter_kappa must be finite and > 0, got 0.0"),
    "simulate-trials-zero": (["simulate-boundary", "--trials", "0", "--seed", "1"], 2,
                             "angmf simulate-boundary: error: argument --trials: must be >= 1: '0'"),
    "simulate-seed-2^64": (SIMULATE + ["--seed", "18446744073709551616"], 2,
                           "angmf simulate-boundary: error: argument --seed: must lie in [0, 2**64): "
                           "'18446744073709551616'"),
    "refine-contamination": (REFINE + ["--contamination", "0.5", "--seed", "0"], 2,
                             "error: contamination must lie in [0, 0.5), got 0.5"),
    "refine-jitter-zero": (REFINE + ["--jitter-kappa", "0", "--seed", "0"], 2,
                           "error: jitter_kappa must be finite and > 0, got 0.0"),
    "refine-width-zero": (REFINE + ["--width", "0", "--seed", "0"], 2, "error: frame must be at least 1x1, got 0x8"),
    "refine-planes-too-many": (REFINE + ["--planes", "9", "--seed", "0"], 2, "error: 9 planes do not fit in width 8"),
    "refine-no-frames": (REFINE + ["--frames", "0", "--seed", "0"], 2, "error: no training frames"),
    "refine-epochs-zero": (REFINE + ["--epochs", "0", "--seed", "0"], 2, "error: epochs and batch_size must be >= 1"),
    "refine-lr-collapse": (REFINE + ["--lr", "1e9", "--seed", "0"], 4,
                           "error: kappa collapsed to 0 at every valid pixel at epoch 1"),
    "refine-seed-negative": (REFINE + ["--seed", "-1"], 2,
                             "angmf refine-demo: error: argument --seed: must lie in [0, 2**64): '-1'"),
    "refine-rs-empty": (REFINE + ["--rs", "1e-9", "--seed", "0"], 2,
                        "error: r_s = 1e-09 selects no pixel of a frame with 64 valid pixels"),
}


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


def _fit_csv(directory, name):
    """Write the rows of ``FIT_CSVS[name]``'s sample runs to one CSV; returns its path."""
    d = Path(directory)
    parts = []
    for i, argv in enumerate(FIT_CSVS[name]):
        assert main(["sample", *argv, "--out-csv", str(d / f"part{i}.csv")]) == 0
        parts.append((d / f"part{i}.csv").read_bytes())
    path = d / f"{name}.csv"
    path.write_bytes(parts[0] + b"".join(p.split(b"\r\n", 1)[1] for p in parts[1:]))
    return path


def _digest(directory, case):
    """Run one case in ``directory``; returns the SHA-256 of its output files."""
    kind, sample = case.split()
    d = Path(directory)
    if kind == "refine-demo":
        stdout = io.StringIO()
        with _one_blas_thread(), contextlib.redirect_stdout(stdout):
            assert main(["refine-demo", *REFINE_DEMOS[sample],
                         "--out-weights", str(d / "w.rmlp"), "--out-csv", str(d / "curve.csv")]) == 0
        h = hashlib.sha256()
        for part in ((d / "w.rmlp").read_bytes(), (d / "curve.csv").read_bytes(), stdout.getvalue().encode()):
            h.update(hashlib.sha256(part).digest())
        return h.hexdigest()
    if kind in ("fit-median", "fit-mle", "simulate-boundary"):
        if kind == "simulate-boundary":
            argv = ["simulate-boundary", *SIMULATIONS[sample]]
        else:
            argv = ["fit", "--samples-csv", str(_fit_csv(d, sample)), "--estimator", kind[len("fit-"):]]
        assert main(argv + ["--out-json", str(d / "out.json")]) == 0
        return hashlib.sha256((d / "out.json").read_bytes()).hexdigest()
    if kind == "expected-error":
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["expected-error", "--kappa", *EXPECTED_ERROR_KAPPAS]) == 0
        assert main(["expected-error", "--kappa", *EXPECTED_ERROR_KAPPAS, "--out-json", str(d / "e.json")]) == 0
        return hashlib.sha256(stdout.getvalue().encode() + (d / "e.json").read_bytes()).hexdigest()
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


@pytest.mark.parametrize("case", BLAS_CASES)
def test_golden_blas_digest(tmp_path, golden_blas, case):
    assert _digest(tmp_path, case) == golden_blas[case]


# one seeded boundary median: taking its 3-vector dots through BLAS ddot
# moves its last bit on the SkylakeX core
BOUNDARY_MEDIAN = """
import math
from angmf.estimators import spherical_median
from angmf.rng import RngState
from angmf.synth import TwoPlaneScene, sample_boundary_pixels
scene = TwoPlaneScene((0.0, 0.0, 1.0), (math.sin(1.0), 0.0, math.cos(1.0)), 0.2, 50.0)
rng = RngState(3)
for _ in range(52):
    samples = sample_boundary_pixels(scene, rng, 500)
print(spherical_median(samples).tobytes().hex())
"""


def test_median_bits_do_not_depend_on_the_blas_core():
    if blas_key() is None:
        pytest.skip("numpy's OpenBLAS reports no core name")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(angmf.__file__).parent.parent)
    bits = [subprocess.run([sys.executable, "-c", BOUNDARY_MEDIAN], env=core_env, capture_output=True,
                           text=True, check=True, timeout=60).stdout
            for core_env in (env, {**env, "OPENBLAS_CORETYPE": "Sandybridge"})]
    assert bits[0] == bits[1] != ""


def _exit_and_stderr(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejections
            code = e.code
    return code, stderr.getvalue()


@pytest.mark.parametrize("case", ERRORS)
def test_error_path(tmp_path, monkeypatch, case):
    for name, data in ERROR_FILES.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)  # messages name the files as given
    argv, code, line = ERRORS[case]
    assert _exit_and_stderr(argv) == (code, line + "\n")

def test_every_manifest_entry_lists_exactly_the_cases():
    # a ufunc fingerprint alone keys CASES; "<fingerprint> <core>" keys BLAS_CASES
    manifest = json.loads(MANIFEST.read_text())
    assert any(" " in key for key in manifest) and any(" " not in key for key in manifest)
    for key, entry in manifest.items():
        assert sorted(entry) == sorted(BLAS_CASES if " " in key else CASES)


if __name__ == "__main__":
    import tempfile

    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    written = [ufunc_fingerprint()]
    with tempfile.TemporaryDirectory() as d:
        manifest[ufunc_fingerprint()] = {case: _digest(d, case) for case in CASES}
        if blas_key() is not None:
            manifest[blas_key()] = {case: _digest(d, case) for case in BLAS_CASES}
            written.append(blas_key())
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote the digests of {' and '.join(written)} to {MANIFEST}", file=sys.stderr)
