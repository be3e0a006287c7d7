import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from angmf import cli, mapio, metrics, synth
from angmf.cli import main
from angmf.distributions import expected_angular_error
from angmf.estimators import mean_direction
from angmf.mapio import KappaMap, NormalMap, load_weights
from angmf.rng import RngState
from angmf.sphere import angle_between
from angmf.synth import TwoPlaneScene, sample_boundary_pixels

from conftest import reference_median

E_ALPHA_K1 = 1.1301368068173820266


def _fuzz_main(capsys, argv):
    """(exit code, stdout, stderr) of one CLI run with every warning an error and argparse exits caught."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejections
            code = e.code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and "error: " in err and err.endswith("\n")
    return code, out, err


def tilted(deg):
    t = math.radians(deg)
    return [math.sin(t), 0.0, math.cos(t)]


def write_pair(tmp_path, angles_deg, shape):
    """Pred tilted by the given angles against an all +z gt."""
    pred = np.array([tilted(a) for a in angles_deg]).reshape(shape + (3,))
    gt = np.zeros(shape + (3,))
    gt[..., 2] = 1.0
    p_pred, p_gt = str(tmp_path / "pred.snmp"), str(tmp_path / "gt.snmp")
    mapio.write_normal_map(NormalMap.from_vectors(pred), p_pred)
    mapio.write_normal_map(NormalMap.from_vectors(gt), p_gt)
    return p_pred, p_gt


# ------------------------------------------------------------------- eval


def test_eval_identical_maps(tmp_path, capsys):
    path = str(tmp_path / "m.snmp")
    data = np.zeros((3, 3, 3))
    data[..., 2] = 1.0
    mapio.write_normal_map(NormalMap.from_vectors(data), path)
    assert main(["eval", "--pred", path, "--gt", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mean"] == 0.0 and report["median"] == 0.0 and report["rmse"] == 0.0
    for key in ("pct_5", "pct_7_5", "pct_11_25", "pct_22_5", "pct_30"):
        assert report[key] == 100.0


def test_eval_crafted_four_pixels(tmp_path):
    # the 30 degree error is nudged up so float32 storage cannot flip it
    # across the strict pct_30 threshold
    pred, gt = write_pair(tmp_path, [10.0, 20.0, 30.0001, 40.0], (2, 2))
    out = str(tmp_path / "r.json")
    assert main(["eval", "--pred", pred, "--gt", gt, "--out-json", out]) == 0
    report = json.loads(open(out).read())
    assert report["mean"] == pytest.approx(25.0, abs=1e-3)
    assert report["median"] == pytest.approx(25.0, abs=1e-3)
    assert report["rmse"] == pytest.approx(math.sqrt(750.0), abs=1e-3)
    assert report["pct_5"] == 0.0
    assert report["pct_7_5"] == 0.0
    assert report["pct_11_25"] == 25.0
    assert report["pct_22_5"] == 50.0
    assert report["pct_30"] == 50.0
    # round-tripping the stored maps through the library gives the same JSON
    rt = metrics.summarize(
        metrics.valid_errors(
            metrics.angular_errors(mapio.read_normal_map(pred), mapio.read_normal_map(gt))
        )
    ).to_json_dict()
    assert report == rt


def test_eval_missing_file_is_usage_error(tmp_path):
    path = str(tmp_path / "x.snmp")
    data = np.zeros((1, 1, 3))
    data[..., 2] = 1.0
    mapio.write_normal_map(NormalMap.from_vectors(data), path)
    with pytest.raises(SystemExit) as ei:
        main(["eval", "--pred", str(tmp_path / "nope.snmp"), "--gt", path])
    assert ei.value.code == 2


def test_eval_bad_magic_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.snmp"
    bad.write_bytes(b"XXXXX" + bytes(20))
    assert main(["eval", "--pred", str(bad), "--gt", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------- sparsify


def make_sparsify_inputs(tmp_path, kappas):
    angles = [5.0, 12.0, 20.0, 28.0, 36.0, 44.0]
    pred, gt = write_pair(tmp_path, angles, (2, 3))
    kpath = str(tmp_path / "k.skmp")
    kmap = KappaMap(np.array(kappas, dtype=float).reshape(2, 3))
    mapio.write_kappa_map(kmap, kpath)
    return pred, gt, kpath


def test_sparsify_perfect_ranking_gives_zero_ause(tmp_path):
    # uncertainty ranking matches the true error ranking exactly
    pred, gt, kpath = make_sparsify_inputs(tmp_path, [60.0, 50.0, 40.0, 30.0, 20.0, 10.0])
    out_json = str(tmp_path / "s.json")
    out_csv = str(tmp_path / "curve.csv")
    rc = main([
        "sparsify", "--pred", pred, "--gt", gt, "--kappa", kpath,
        "--out-csv", out_csv, "--out-json", out_json,
    ])
    assert rc == 0
    payload = json.loads(open(out_json).read())
    assert payload["metric"] == "mean"
    assert payload["ause"] == 0.0
    assert payload["ausc_estimated"] == payload["ausc_oracle"]
    est_lines = open(out_csv).read().splitlines()
    orc_lines = open(str(tmp_path / "curve.oracle.csv")).read().splitlines()
    assert est_lines[0] == "x_percent,value" and len(est_lines) == 101
    assert est_lines[1:] == orc_lines[1:]


def test_sparsify_constant_kappa(tmp_path):
    pred, gt, kpath = make_sparsify_inputs(tmp_path, [7.0] * 6)
    out_json = str(tmp_path / "s.json")
    rc = main([
        "sparsify", "--pred", pred, "--gt", gt, "--kappa", kpath,
        "--metric", "rmse", "--out-json", out_json,
    ])
    assert rc == 0
    payload = json.loads(open(out_json).read())
    assert payload["ause"] >= 0.0
    assert payload["ausc_estimated"] >= payload["ausc_oracle"]


def test_sparsify_mismatched_kappa_map(tmp_path, capsys):
    pred, gt = write_pair(tmp_path, [1.0, 2.0, 3.0, 4.0], (2, 2))
    kpath = str(tmp_path / "k.skmp")
    mapio.write_kappa_map(KappaMap(np.ones((3, 3))), kpath)
    assert main(["sparsify", "--pred", pred, "--gt", gt, "--kappa", kpath]) == 3
    assert "error:" in capsys.readouterr().err


def test_sparsify_kappa_shape_error_comes_first(tmp_path, capsys):
    # pred and gt disagree and the kappa map fits neither: the kappa check reports
    # first; with a kappa map that fits pred, the pred/gt mismatch does
    pred, gt, kpath = (str(tmp_path / name) for name in ("pred.snmp", "gt.snmp", "k.skmp"))
    mapio.write_normal_map(NormalMap.from_vectors(np.tile([0.0, 0.0, 1.0], (2, 2, 1))), pred)
    mapio.write_normal_map(NormalMap.from_vectors(np.tile([0.0, 0.0, 1.0], (2, 3, 1))), gt)
    for shape, code, want in (((3, 3), 3, "kappa map (3, 3) does not match normal maps (byte offset 5)"),
                              ((2, 2), 2, "map shapes differ: (2, 2, 3) vs (2, 3, 3)")):
        mapio.write_kappa_map(KappaMap(np.ones(shape)), kpath)
        assert main(["sparsify", "--pred", pred, "--gt", gt, "--kappa", kpath]) == code
        assert capsys.readouterr().err == f"error: {want}\n"


# ----------------------------------------------------------------- sample


@pytest.mark.parametrize("dist", ["angmf", "vonmf"])
def test_sample_same_seed_same_bytes(tmp_path, dist):
    a, b, c = (str(tmp_path / n) for n in ("a.csv", "b.csv", "c.csv"))
    argv = ["sample", "--dist", dist, "--mu", "1,1,1", "--kappa", "3", "--n", "50"]
    assert main(argv + ["--seed", "5", "--out-csv", a]) == 0
    assert main(argv + ["--seed", "5", "--out-csv", b]) == 0
    assert main(argv + ["--seed", "6", "--out-csv", c]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a, "rb").read() != open(c, "rb").read()


def test_sample_huge_kappa_concentrates(tmp_path):
    out = str(tmp_path / "s.csv")
    rc = main(["sample", "--mu", "0,1,0", "--kappa", "1e6", "--n", "300",
               "--seed", "2", "--out-csv", out])
    assert rc == 0
    v = mapio.read_vectors_csv(out)
    assert v.shape == (300, 3)
    assert np.max(np.arccos(np.clip(v[:, 1], -1.0, 1.0))) < 1e-2


def test_sample_mean_angle_matches_expected_error(tmp_path):
    out = str(tmp_path / "big.csv")
    rc = main(["sample", "--dist", "angmf", "--mu", "0,0,1", "--kappa", "1",
               "--n", "100000", "--seed", "77", "--out-csv", out])
    assert rc == 0
    v = mapio.read_vectors_csv(out)
    mean_angle = float(np.mean(np.arccos(np.clip(v[:, 2], -1.0, 1.0))))
    assert abs(mean_angle - E_ALPHA_K1) < 0.01


def test_sample_bad_flags_exit_2(tmp_path):
    out = str(tmp_path / "s.csv")
    base = ["sample", "--n", "5", "--seed", "1", "--out-csv", out]
    for bad in (["--mu", "1,2", "--kappa", "1"],
                ["--mu", "a,b,c", "--kappa", "1"],
                ["--mu", "0,0,0", "--kappa", "1"],
                ["--mu", "0,0,1", "--kappa", "-1"],
                ["--mu", "0,0,1", "--kappa", "nan"],
                ["--mu", "-1,x,0", "--kappa", "1"],
                ["--mu", "-.", "--kappa", "1"],
                ["--mu", "-x", "--kappa", "1"]):
        with pytest.raises(SystemExit) as ei:
            main(base + bad)
        assert ei.value.code == 2


@pytest.mark.parametrize("mu", ["-1,0,0", "-.5,0,1", "-0.6,-0.8,0"])
def test_sample_mu_may_start_with_a_minus(tmp_path, mu):
    # "--mu -1,0,0" is a value, not an unknown option, and gives the bytes of "--mu=-1,0,0"
    outs = [tmp_path / "separate.csv", tmp_path / "joined.csv"]
    for out, form in zip(outs, (["--mu", mu], [f"--mu={mu}"])):
        assert main(["sample", *form, "--kappa", "2", "--n", "5", "--seed", "3", "--out-csv", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


# --mu components and flag values as given on the command line: special, out of range and malformed
SAMPLE_COMPONENTS = st.sampled_from(["0", "1", "-1", "-0.0", "0.3", "1e308", "-1e308", "5e-324", "1e-320", "inf",
                                     "-inf", "nan", "x", ""])
SAMPLE_FLAGS = {
    "--dist": st.sampled_from(["angmf", "vonmf", "x"]),
    "--kappa": st.sampled_from(["0", "5e-324", "1e-300", "1", "50", "1e6", "1e308", "-1", "nan", "inf", "x"]),
    "--n": st.sampled_from(["0", "1", "3", "-1", "1.5", "x"]),
}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mu=st.lists(SAMPLE_COMPONENTS, min_size=3, max_size=3), flags=st.fixed_dictionaries({}, optional=SAMPLE_FLAGS),
       seed=st.integers(0, 2**64 - 1))
def test_sample_fuzz_exits_documented_codes(tmp_path, capsys, mu, flags, seed):
    # small draws at odd --mu components and flag values: exit 0 with n unit
    # rows and a silent stderr, or exit 2 with one error line; never a
    # traceback or a warning
    out = tmp_path / "s.csv"
    out.unlink(missing_ok=True)
    flags = {"--mu": ",".join(mu), "--kappa": "1", "--n": "3"} | flags
    argv = ["sample", "--seed", str(seed), "--out-csv", str(out)] + [f"{f}={v}" for f, v in flags.items()]
    code, _, _ = _fuzz_main(capsys, argv)
    assert code in (0, 2)
    if code == 0:
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,z" and len(lines) == 1 + int(flags["--n"])
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).reshape(-1, 3)
        assert np.all(np.abs(np.sqrt(np.sum(rows * rows, axis=1)) - 1.0) < 1e-12)


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70), str(10**400)])
@pytest.mark.parametrize("command", [
    ["sample", "--mu", "0,0,1", "--kappa", "1", "--n", "3", "--out-csv", "s.csv"],
    ["select-pixels", "--kappa-map", "k.map", "--out-csv", "sel.csv"],
    ["simulate-boundary", "--trials", "1", "--samples", "5"],
    ["refine-demo", "--width", "4", "--height", "4", "--frames", "1", "--epochs", "1"],
], ids=lambda argv: argv[0])
def test_seed_outside_u64_is_usage_error(tmp_path, monkeypatch, capsys, command, seed):
    # RngState wraps seeds mod 2**64; the CLI takes only the seeds it does not wrap
    monkeypatch.chdir(tmp_path)
    mapio.write_kappa_map(KappaMap(np.ones((2, 2), dtype=np.float32)), "k.map")
    with pytest.raises(SystemExit) as ei:
        main(command + ["--seed", seed])
    assert ei.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"angmf {command[0]}: error: argument --seed: must lie in [0, 2**64): {seed!r}"
    assert not any(p.name.endswith(".csv") for p in tmp_path.iterdir())


def test_seed_range_ends_are_accepted(tmp_path):
    outs = []
    for seed in ("0", str(2**64 - 1)):
        outs.append(tmp_path / f"s{seed}.csv")
        assert main(["sample", "--mu", "0,0,1", "--kappa", "1", "--n", "3", "--seed", seed,
                     "--out-csv", str(outs[-1])]) == 0
    assert outs[0].read_bytes() != outs[1].read_bytes()


# -------------------------------------------------------------------- fit


def sample_csv(tmp_path, name, mu, kappa, n, seed):
    path = str(tmp_path / name)
    assert main(["sample", "--mu", mu, "--kappa", str(kappa), "--n", str(n),
                 "--seed", str(seed), "--out-csv", path]) == 0
    return path


def test_fit_mean_identical_samples(tmp_path, capsys):
    path = str(tmp_path / "same.csv")
    mapio.write_vectors_csv(np.tile([0.0, 0.0, 1.0], (3, 1)), path)
    assert main(["fit", "--samples-csv", path, "--estimator", "mean"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["direction"] == [0.0, 0.0, 1.0]


def test_fit_mle_recovers_kappa(tmp_path):
    path = sample_csv(tmp_path, "k5.csv", "0,0,1", 5, 2000, 9)
    out = str(tmp_path / "fit.json")
    assert main(["fit", "--samples-csv", path, "--out-json", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["estimator"] == "mle"
    assert payload["converged"] is True
    assert abs(payload["kappa"] - 5.0) / 5.0 < 0.10
    assert np.arccos(np.dot(payload["direction"], [0, 0, 1])) < math.radians(2.0)


def test_fit_median_robust_to_contamination(tmp_path, capsys):
    main_part = mapio.read_vectors_csv(sample_csv(tmp_path, "a.csv", "0,0,1", 50, 160, 3))
    outliers = mapio.read_vectors_csv(sample_csv(tmp_path, "b.csv", "1,0,0.2", 50, 40, 4))
    both = str(tmp_path / "mix.csv")
    mapio.write_vectors_csv(np.vstack([main_part, outliers]), both)

    assert main(["fit", "--samples-csv", both, "--estimator", "median"]) == 0
    med = json.loads(capsys.readouterr().out)
    assert main(["fit", "--samples-csv", both, "--estimator", "mean"]) == 0
    mean = json.loads(capsys.readouterr().out)
    e_med = np.arccos(np.clip(np.dot(med["direction"], [0, 0, 1]), -1, 1))
    e_mean = np.arccos(np.clip(np.dot(mean["direction"], [0, 0, 1]), -1, 1))
    assert e_med < e_mean


def test_fit_mle_identical_samples_not_converged(tmp_path, capsys):
    path = str(tmp_path / "same.csv")
    mapio.write_vectors_csv(np.tile([0.0, 0.0, 1.0], (5, 1)), path)
    assert main(["fit", "--samples-csv", path, "--estimator", "mle"]) == 4
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert payload["converged"] is False
    assert out.err == f"error: mle stopped at the kappa ceiling 1000000.0 after {payload['iterations']} iterations\n"


def test_fit_median_unreachable_tol_says_so(tmp_path, capsys):
    path = sample_csv(tmp_path, "k5.csv", "0,0,1", 5, 200, 3)
    capsys.readouterr()
    assert main(["fit", "--samples-csv", path, "--estimator", "median", "--tol", "1e-300"]) == 4
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert payload["converged"] is False
    assert out.err == f"error: median did not converge after {payload['iterations']} iterations\n"


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_fit_tol_must_be_finite_and_positive(tmp_path, capsys, tol):
    path = str(tmp_path / "same.csv")
    mapio.write_vectors_csv(np.tile([0.0, 0.0, 1.0], (5, 1)), path)
    with pytest.raises(SystemExit) as ei:
        main(["fit", "--samples-csv", path, "--tol", tol])
    assert ei.value.code == 2
    assert f"tol: must be finite and > 0: '{tol}'" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["nan", "inf"])
def test_fit_non_finite_csv_field_is_format_error(tmp_path, capsys, field):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,y,z\n0.0,0.0,1.0\n{field},0.0,1.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", "--samples-csv", str(path), "--estimator", "mean"]) == 3
    assert "(byte offset 18)" in capsys.readouterr().err


# float() reads every number here, loadtxt not all of them (1_0, fullwidth 1); 20 digits take float()
FIT_NUMBERS = ["0", "-0", "1", "-0.5", "2e3", "1e-320", "5e-324", "1e308", "-1e308", "1_0", "\uff11", "+1", ".5",
               "1.", "12345678901234567890"]
FIT_TOKENS = FIT_NUMBERS + ["nan", "inf", "-inf", "one", "", "1e", "0x1", "0x1p3", "1e400", "infinity"]
# (fields, times the row repeats); half the files hold only 3-number rows
FIT_ROWS = st.one_of(
    st.lists(st.tuples(st.lists(st.sampled_from(FIT_NUMBERS), min_size=3, max_size=3), st.integers(1, 3)),
             max_size=6),
    st.lists(st.tuples(st.lists(st.sampled_from(FIT_TOKENS), min_size=1, max_size=4), st.integers(1, 3)),
             max_size=6))


def _reject_constant(name):
    raise ValueError(f"{name} in the fit JSON")


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=FIT_ROWS, header=st.booleans(), newline=st.sampled_from(["\n", "\r\n"]),
       estimator=st.sampled_from(["mean", "median", "mle"]))
def test_fit_fuzz_exits_documented_codes(tmp_path, capsys, rows, header, newline, estimator):
    # ragged and repeated rows of special tokens: exit 0 with a valid fit and
    # a silent stderr, or exit 2, 3 or 4 with one stderr line; never a
    # traceback or a warning
    lines = ["x,y,z"] * header + [",".join(fields) for fields, repeat in rows for _ in range(repeat)]
    csv, out = tmp_path / "fuzz.csv", tmp_path / "fit.json"
    csv.write_text("".join(line + newline for line in lines), encoding="utf-8")
    out.unlink(missing_ok=True)
    code, _, err = _fuzz_main(capsys, ["fit", "--samples-csv", str(csv), "--estimator", estimator,
                                       "--out-json", str(out)])
    assert code in (0, 2, 3, 4)
    if code == 0:
        payload = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert abs(math.sqrt(sum(x * x for x in payload["direction"])) - 1.0) < 1e-12
    else:
        assert err.startswith("error: ")


# --------------------------------------------------------- expected-error


def test_expected_error_kappa_zero_prints_90(capsys):
    assert main(["expected-error", "--kappa", "0"]) == 0
    assert capsys.readouterr().out == "90.0\n"


def test_expected_error_json(tmp_path):
    out = str(tmp_path / "e.json")
    assert main(["expected-error", "--kappa", "0", "1", "--out-json", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["0.0"] == 90.0
    assert payload["1.0"] == pytest.approx(math.degrees(E_ALPHA_K1), rel=1e-12)


def test_expected_error_huge_kappa_is_two_over_kappa(capsys):
    # kappa^2 overflows here; this printed 0.0 and nan (after warnings)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["expected-error", "--kappa", "1e200", "1e308", "1e308"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [float(v) for v in lines] == [2.0 / k / math.pi * 180.0 for k in (1e200, 1e308, 1e308)]


@pytest.mark.parametrize("json_out", [False, True])
def test_expected_error_evaluates_once_per_kappa(tmp_path, capsys, monkeypatch, json_out):
    calls = []

    def counting(kappa):
        calls.append(kappa)
        return expected_angular_error(kappa)

    monkeypatch.setattr("angmf.cli.expected_angular_error", counting)
    argv = ["expected-error", "--kappa", "1", "1", "2"]
    if json_out:
        argv += ["--out-json", str(tmp_path / "e.json")]
    assert main(argv) == 0
    assert calls == [1.0, 1.0, 2.0]
    if not json_out:
        assert len(capsys.readouterr().out.splitlines()) == 3


# kappas as given on the command line: special, tiny, huge and malformed
EXPECTED_KAPPAS = st.one_of(st.sampled_from(["0", "-0.0", "5e-324", "1e-300", "1e-17", "1", "1e200", "1e308", "-1",
                                             "-1e308", "nan", "inf", "1e400", "x", ""]),
                            st.floats(min_value=0.0).map(repr))


def _finite_nonneg(text):
    try:
        return math.isfinite(float(text)) and float(text) >= 0.0
    except ValueError:
        return False


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kappas=st.lists(EXPECTED_KAPPAS, max_size=4), json_out=st.booleans())
def test_expected_error_fuzz_exits_documented_codes(tmp_path, capsys, kappas, json_out):
    # lists of odd kappas: exit 0 with one E[alpha] in [0, 90] per kappa and a
    # silent stderr exactly when every kappa is finite and >= 0, else exit 2
    # with one error line; never a traceback or a warning. --kappa=v takes one
    # value only, so the list follows a bare --kappa; argparse reads "-1e308"
    # there as an option, which is a usage error too
    out = tmp_path / "e.json"
    argv = ["expected-error", "--kappa", *kappas]
    argv += ["--out-json", str(out)] * json_out
    code, stdout, _ = _fuzz_main(capsys, argv)
    assert code == (0 if kappas and all(map(_finite_nonneg, kappas)) else 2)
    if code == 0:
        if json_out:
            payload = json.loads(out.read_text(), parse_constant=_reject_constant)
            assert sorted(payload) == sorted({str(float(k)) for k in kappas})
            values = list(payload.values())
        else:
            values = [float(line) for line in stdout.splitlines()]
            assert len(values) == len(kappas)
        assert all(0.0 <= v <= 90.0 for v in values)


# ------------------------------------------------------------ select-pixels


def test_select_pixels_counts_and_determinism(tmp_path):
    kpath = str(tmp_path / "k.skmp")
    gen = np.random.default_rng(8)
    mapio.write_kappa_map(KappaMap(gen.uniform(0.5, 80.0, size=(10, 10))), kpath)
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["select-pixels", "--kappa-map", kpath, "--rs", "0.4", "--beta", "0.7"]
    assert main(argv + ["--seed", "0", "--out-csv", out_a]) == 0
    assert main(argv + ["--seed", "0", "--out-csv", out_b]) == 0
    assert open(out_a).read() == open(out_b).read()

    lines = open(out_a).read().splitlines()
    assert lines[0] == "index,role"
    roles = [ln.split(",")[1] for ln in lines[1:]]
    assert roles.count("importance") == 28
    assert roles.count("coverage") == 12
    idx = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert len(set(idx)) == 40 and all(0 <= i < 100 for i in idx)


def test_select_pixels_importance_is_top_uncertainty(tmp_path):
    kpath = str(tmp_path / "k.skmp")
    kappas = np.arange(1.0, 26.0).reshape(5, 5)
    mapio.write_kappa_map(KappaMap(kappas), kpath)
    out = str(tmp_path / "sel.csv")
    assert main(["select-pixels", "--kappa-map", kpath, "--rs", "0.4",
                 "--beta", "1.0", "--seed", "1", "--out-csv", out]) == 0
    lines = open(out).read().splitlines()[1:]
    got = sorted(int(ln.split(",")[0]) for ln in lines)
    # lowest kappa = highest expected error: flat indices 0..9
    assert got == list(range(10))


def test_main_builds_one_parser_per_process(tmp_path):
    pred, gt = write_pair(tmp_path, [10.0, 20.0, 30.0, 40.0, 50.0, 60.0], (2, 3))
    kappa = np.random.default_rng(29).uniform(0.5, 400.0, size=(2, 3))  # across 700/pi, where E[alpha]'s exp clamps
    kappa[0, 1] = np.nan
    kpath = str(tmp_path / "k.skmp")
    mapio.write_kappa_map(KappaMap(kappa), kpath)
    select = ["select-pixels", "--kappa-map", kpath, "--rs", "1", "--beta", "0.5", "--seed", "4", "--out-csv"]
    cli.build_parser.cache_clear()
    assert main(select + [str(tmp_path / "a.csv")]) == 0
    assert main(["sparsify", "--pred", pred, "--gt", gt, "--kappa", kpath, "--out-json", str(tmp_path / "s.json")]) == 0
    with pytest.raises(SystemExit) as ei:
        main(["sample", "--mu", "0,0,1", "--kappa", "1", "--n", "3", "--seed", "-1", "--out-csv", str(tmp_path / "x.csv")])
    assert ei.value.code == 2
    assert main(select + [str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_text().count("\n") == 1 + 5  # the header and every valid pixel
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


# ------------------------------------------------- map inputs, fuzzed


_NAN_BITS = np.array([0x7FC00000, 0x7FC00001, 0xFFC00000, 0x7FA00000], dtype=np.uint32).view(np.float32)
# SNMP1 pixels: unit, at and past the unit tolerance, NaN triplets of every
# payload, mixed NaN, huge (float32 squares overflow), subnormal, infinite
FUZZ_PIXELS = [[0.0, 0.0, 1.0], [0.6, 0.0, -0.8], [0.0, 1.0 + 5e-7, 0.0], [0.0, 0.0, 1.0 + 2e-6], [0.0, 0.0, 0.5],
               list(_NAN_BITS[:3]), [_NAN_BITS[3]] * 3, [np.nan, 0.0, 1.0], [0.0, _NAN_BITS[3], 1.0],
               [2.0**64, 0.0, 0.0], [1e-40, 0.0, 1.0], [1e-40, 1e-40, 1e-40], [np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]]
# SKMP1 kappas: zero of both signs, subnormal, tiny to huge, NaN of every payload, negative, infinite
FUZZ_KAPPAS = [0.0, -0.0, 1e-40, 1e-30, 3.5, 7e4, 3e38, *_NAN_BITS, -1.0, np.inf]
FUZZ_SELECT_FLAGS = st.sampled_from(["0.4", "0.7", "1", "0", "1e-300", "1.5", "-0.1", "nan", "inf", "x", ""])


def _write_fuzz_map(path, magic, width, height, payload, cut):
    raw = magic + struct.pack("<II", width, height) + np.asarray(payload, dtype="<f4").tobytes()
    path.write_bytes(raw[:len(raw) - cut])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["eval", "sparsify", "select-pixels"]),
    width=st.sampled_from([3, 2, 1, 0]),
    height=st.integers(1, 3),
    pixels=st.dictionaries(st.integers(0, 17), st.sampled_from(range(len(FUZZ_PIXELS))), max_size=3),
    kappas=st.dictionaries(st.integers(0, 8), st.sampled_from(FUZZ_KAPPAS), max_size=3),
    kappa_file=st.sampled_from(["whole", "whole", "whole", "one column", "cut 1", "cut 4"]),
    metric=st.sampled_from(metrics.METRIC_NAMES),
    flags=st.fixed_dictionaries({}, optional={"--rs": FUZZ_SELECT_FLAGS, "--beta": FUZZ_SELECT_FLAGS}),
    seed=st.integers(0, 2**64 - 1),
)
def test_map_commands_fuzz_exit_documented_codes(tmp_path, capsys, command, width, height, pixels, kappas,
                                                 kappa_file, metric, flags, seed):
    # tiny SNMP1/SKMP1 files with up to 3 special values each, some truncated
    # or of another size, through eval, sparsify and select-pixels, at odd
    # --rs/--beta: exit 0 with a silent stderr, or exit 2 or 3 with one error
    # line; never a traceback or a warning
    n = width * height
    normals = [FUZZ_PIXELS[pixels.get(k, k % 2)] for k in range(18)]  # pred, then gt; unit but where fuzzed
    kw, cut = (1 if kappa_file == "one column" else width), int(kappa_file[-1]) if "cut" in kappa_file else 0
    pred, gt, kappa, out = (tmp_path / name for name in ("pred.snmp", "gt.snmp", "k.skmp", "out"))
    _write_fuzz_map(pred, b"SNMP1", width, height, normals[:n], 0)
    _write_fuzz_map(gt, b"SNMP1", width, height, normals[9:9 + n], 0)
    _write_fuzz_map(kappa, b"SKMP1", kw, height, [kappas.get(k, 3.5 + k) for k in range(kw * height)], cut)
    out.unlink(missing_ok=True)
    if command == "eval":
        argv = ["eval", "--pred", str(pred), "--gt", str(gt), "--out-json", str(out)]
    elif command == "sparsify":
        argv = ["sparsify", "--pred", str(pred), "--gt", str(gt), "--kappa", str(kappa), "--metric", metric,
                "--out-json", str(out)]
    else:
        argv = ["select-pixels", "--kappa-map", str(kappa), "--seed", str(seed), "--out-csv", str(out)]
        argv += [f"{flag}={value}" for flag, value in flags.items()]
    code, _, _ = _fuzz_main(capsys, argv)
    assert code in (0, 2, 3)
    if code:
        return
    if command == "select-pixels":
        lines = out.read_text().splitlines()
        assert lines[0] == "index,role" and all(0 <= int(line.split(",")[0]) < kw * height for line in lines[1:])
    else:
        payload = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert all(math.isfinite(v) for v in payload.values() if not isinstance(v, str))


# Peak traced heap of each map command at 640x480 under numpy 2.4.6, which
# reports its buffers to tracemalloc: eval 12.4 MiB, sparsify 13.1-14.8 MiB,
# select-pixels 14.3 MiB.  Reading a map once into its array, dropping the
# full-frame inputs before E[alpha] and taking E[alpha] in blocks brought
# eval down from 15.9 MiB and sparsify from 25.2 MiB.
MAP_PEAK_MIB = {"eval": 13.5, "sparsify": 16.0, "select-pixels": 15.0}


@pytest.fixture(scope="module")
def frame_maps(tmp_path_factory):
    """pred, gt and kappa files of one seeded 640x480 frame with NaN holes."""
    gen = np.random.default_rng(25)
    h, w = 480, 640
    gt = gen.standard_normal((h, w, 3)) + [0.0, 0.0, 3.0]
    pred = gt + 0.1 * gen.standard_normal((h, w, 3))
    kappa = np.exp(gen.uniform(math.log(2.0), math.log(300.0), (h, w)))
    kappa[gen.random((h, w)) < 0.01] = np.nan
    d = tmp_path_factory.mktemp("frame")
    paths = {name: str(d / name) for name in ("pred", "gt", "kappa")}
    mapio.write_normal_map(NormalMap.from_vectors(pred, valid=gen.random((h, w)) >= 0.02), paths["pred"])
    mapio.write_normal_map(NormalMap.from_vectors(gt, valid=gen.random((h, w)) >= 0.03), paths["gt"])
    mapio.write_kappa_map(KappaMap(kappa), paths["kappa"])
    return paths, d


def _peak_mib(argv):
    """Peak traced heap of one in-process CLI run, after an untraced run of the same argv."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv", [["eval"], ["select-pixels"]] + [["sparsify", "--metric", m]
                                                                    for m in metrics.METRIC_NAMES],
                         ids=lambda argv: "-".join(argv[::2]))
def test_map_commands_peak_memory(frame_maps, argv):
    paths, d = frame_maps
    command = argv[0]
    if command == "select-pixels":
        argv = argv + ["--kappa-map", paths["kappa"], "--seed", "7", "--out-csv", str(d / "sel.csv")]
    else:
        argv = argv + ["--pred", paths["pred"], "--gt", paths["gt"], "--out-json", str(d / "out.json")]
        argv += ["--kappa", paths["kappa"]] if command == "sparsify" else []
    assert _peak_mib(argv) <= MAP_PEAK_MIB[command]


# -------------------------------------------------------- simulate-boundary


def test_simulate_boundary_median_wins(tmp_path):
    out = str(tmp_path / "sim.json")
    assert main(["simulate-boundary", "--seed", "11", "--out-json", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["trials"] == 100
    assert payload["median_wins"] + payload["mean_wins"] + payload["ties"] == 100
    assert payload["median_wins"] >= 95
    assert payload["median_error_deg_avg"] < payload["mean_error_deg_avg"]


def test_simulate_boundary_one_sample_ties(tmp_path):
    # the mean and the median of one sample are that sample
    out = str(tmp_path / "sim.json")
    assert main(["simulate-boundary", "--seed", "3", "--samples", "1", "--trials", "3", "--out-json", out]) == 0
    payload = json.loads(open(out).read())
    assert (payload["median_wins"], payload["mean_wins"], payload["ties"]) == (0, 0, 3)
    assert payload["median_error_deg_avg"] == payload["mean_error_deg_avg"]


@pytest.mark.parametrize("argv", [["--trials", "0"], ["--trials", "-3"], ["--samples", "0"]])
def test_simulate_boundary_rejects_non_positive_counts(argv, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["simulate-boundary", "--seed", "1"] + argv)
    assert ei.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def _simulate_one_trial_at_a_time(seed, trials, samples, path):
    """simulate-boundary's JSON at its default scene, from the per-trial loop it ran before blocks."""
    sep = math.radians(60.0)
    normal_a = np.array([0.0, 0.0, 1.0])
    scene = TwoPlaneScene(normal_a, np.array([math.sin(sep), 0.0, math.cos(sep)]), 0.2, 50.0)
    rng = RngState(seed)
    median_wins = mean_wins = ties = 0
    err_mean, err_median = [], []
    for _ in range(trials):
        s = sample_boundary_pixels(scene, rng, samples)
        e_mean = float(np.degrees(angle_between(mean_direction(s), normal_a)))
        e_med = float(np.degrees(angle_between(reference_median(s), normal_a)))
        err_mean.append(e_mean)
        err_median.append(e_med)
        median_wins += e_med < e_mean
        mean_wins += e_mean < e_med
        ties += e_med == e_mean
    mapio.write_json({"trials": trials, "median_wins": median_wins, "mean_wins": mean_wins, "ties": ties,
                      "mean_error_deg_avg": float(np.mean(err_mean)),
                      "median_error_deg_avg": float(np.mean(err_median))}, path)


@pytest.mark.parametrize("trials, samples, block_rows", [
    (2, cli.BOUNDARY_BLOCK_ROWS + 1, cli.BOUNDARY_BLOCK_ROWS),  # above the cap: one trial per block
    (33, 1000, cli.BOUNDARY_BLOCK_ROWS),  # blocks of 32 and 1 trials
    (7, 100, 250),  # blocks of 2, 2, 2 and 1 trials
    (5, 40, 40),  # one row cap's worth: one trial per block
    (9, 30, 10**6),  # one block
])
def test_simulate_boundary_bytes_do_not_depend_on_blocks(tmp_path, monkeypatch, trials, samples, block_rows):
    monkeypatch.setattr(cli, "BOUNDARY_BLOCK_ROWS", block_rows)
    out, want = tmp_path / "sim.json", tmp_path / "want.json"
    assert main(["simulate-boundary", "--seed", "12", "--trials", str(trials), "--samples", str(samples),
                 "--out-json", str(out)]) == 0
    _simulate_one_trial_at_a_time(12, trials, samples, want)
    assert out.read_bytes() == want.read_bytes()


# numeric flag values as given on the command line: in and out of range, special and malformed
SIMULATE_FLAGS = {
    "--trials": st.sampled_from(["1", "2", "3", "0", "-1", "+2", "1.5", "x"]),
    "--samples": st.sampled_from(["1", "2", "3", "17", "0", "-2", "1e1", ""]),
    "--separation-deg": st.one_of(st.sampled_from(["0", "60", "180", "-90", "1e308", "-1e308", "5e-324", "nan",
                                                   "inf", "x"]), st.floats().map(repr)),
    "--contamination": st.one_of(st.sampled_from(["0", "-0.0", "0.2", "0.4999999999", "0.5", "-0.1", "nan", "inf"]),
                                 st.floats(-0.1, 0.6).map(repr)),
    "--jitter-kappa": st.one_of(st.sampled_from(["0", "5e-324", "1e-300", "1", "50", "1e308", "-1", "nan", "inf"]),
                                st.floats(0.0, 1e6).map(repr)),
}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=st.fixed_dictionaries({}, optional=SIMULATE_FLAGS), seed=st.integers(0, 2**64 - 1))
def test_simulate_boundary_fuzz_exits_documented_codes(tmp_path, capsys, flags, seed):
    # small runs at odd flag values: exit 0 with valid JSON and a silent
    # stderr, or exit 2 or 4 with one error line; never a traceback or a warning
    out = tmp_path / "sim.json"
    out.unlink(missing_ok=True)
    argv = ["simulate-boundary", "--seed", str(seed), "--out-json", str(out)]
    argv += [f"{flag}={value}" for flag, value in ({"--trials": "3", "--samples": "20"} | flags).items()]
    code, _, _ = _fuzz_main(capsys, argv)
    assert code in (0, 2, 4)
    if code == 0:
        payload = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert payload["median_wins"] + payload["mean_wins"] + payload["ties"] == payload["trials"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["simulate-boundary", "refine-demo"])
def test_separation_deg_must_be_finite(command, value, capsys):
    with pytest.raises(SystemExit) as ei:
        main([command, "--seed", "1", "--separation-deg", value])
    assert ei.value.code == 2
    assert f"separation-deg: must be finite: '{value}'" in capsys.readouterr().err


# ------------------------------------------------------------- refine-demo


def test_refine_demo_smoke(tmp_path, capsys):
    out_csv = str(tmp_path / "curve.csv")
    out_w = str(tmp_path / "w.rmlp")
    argv = ["refine-demo", "--width", "8", "--height", "8", "--planes", "1",
            "--frames", "1", "--epochs", "2", "--seed", "5",
            "--out-weights", out_w, "--out-csv", out_csv]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("epoch 2: mean ")
    lines = open(out_csv).read().splitlines()
    assert lines[0] == "epoch,mean_deg,median_deg,rmse_deg,nll"
    assert len(lines) == 3 and lines[1].startswith("1,") and lines[2].startswith("2,")
    mlp = load_weights(out_w)
    assert len(mlp.dims) == 5 and mlp.dims[1:] == (128, 128, 128, 4)


def test_refine_demo_deterministic(tmp_path):
    outs = [str(tmp_path / f"{n}.rmlp") for n in "ab"]
    argv = ["refine-demo", "--width", "8", "--height", "8", "--planes", "1",
            "--frames", "1", "--epochs", "1", "--seed", "7", "--out-weights"]
    assert main(argv + [outs[0]]) == 0
    assert main(argv + [outs[1]]) == 0
    assert open(outs[0], "rb").read() == open(outs[1], "rb").read()


@pytest.mark.parametrize("argv, code, message", [
    (["--planes", "0"], 2, "planes: must be >= 1: '0'"),
    (["--planes", "-2"], 2, "planes: must be >= 1: '-2'"),
    (["--lr", "1e9"], 4, "kappa collapsed to 0 at every valid pixel at epoch 1"),
    (["--lr", "1e300"], 4, "training diverged at epoch 1"),
    (["--width", "1", "--height", "1", "--planes", "1"], 2, "r_s = 0.4 selects no pixel of a frame with 1 valid pixels"),
])
def test_refine_demo_bad_planes_and_collapsed_kappa(argv, code, message, capsys):
    base = ["refine-demo", "--width", "8", "--height", "8", "--epochs", "2", "--seed", "0"]
    if argv[0] == "--planes":  # argparse rejects the count itself
        with pytest.raises(SystemExit) as ei:
            main(base + argv)
        got = ei.value.code
    else:
        with np.errstate(all="ignore"):
            got = main(base + argv)
    assert got == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--rs", "2"], "r_s must lie in (0, 1], got 2.0"),
    (["--beta", "2"], "beta_ug must lie in [0, 1], got 2.0"),
    (["--epochs", "0"], "epochs and batch_size must be >= 1"),
    (["--batch-size", "0"], "epochs and batch_size must be >= 1"),
    (["--lr", "-1"], "learning_rate must be >= 0, got -1.0"),
])
def test_refine_demo_flag_errors_come_before_any_frame(monkeypatch, capsys, argv, message):
    calls = []
    make_frame = synth.make_frame

    def counting(*args, **kwargs):
        calls.append(args)
        return make_frame(*args, **kwargs)

    monkeypatch.setattr(synth, "make_frame", counting)
    assert main(["refine-demo", "--width", "8", "--height", "8", "--seed", "0"] + argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


# numeric flag values as given on the command line: in and out of range, special and malformed; the run
# stays at most 8x8, 3 frames and 2 epochs, and a size past sampling.MAX_COUNT is rejected before any allocation
HUGE = "1000000000000000000000000000000"
REFINE_FLAGS = {
    "--width": st.sampled_from(["8", "5", "1", "0", "-3", HUGE]),
    "--height": st.sampled_from(["8", "3", "1", "0", "-1", HUGE]),
    "--frames": st.sampled_from(["1", "2", "3", "0", "-1"]),
    "--epochs": st.sampled_from(["1", "2", "0", "-1"]),
    "--planes": st.sampled_from(["1", "2", "3", "9", "0", "-2", "1.5", "x", HUGE]),
    "--batch-size": st.sampled_from(["1", "2", "3", "100", "0", "-1", "x"]),
    "--lr": st.sampled_from(["1e-2", "0", "-0.0", "5e-324", "1", "1e9", "1e300", "1e308", "-1e-3", "nan", "inf",
                             "x"]),
    "--rs": st.sampled_from(["0.4", "1", "1e-9", "1e-300", "0", "-0.1", "1.5", "nan", "inf", "x"]),
    "--beta": st.sampled_from(["0.7", "0", "1", "1e-300", "-0.1", "1.5", "nan", "inf", "x"]),
    "--contamination": st.sampled_from(["0", "-0.0", "0.2", "0.4999999999", "0.5", "-0.1", "nan", "inf", "x"]),
    "--jitter-kappa": st.sampled_from(["50", "5e-324", "1", "1e308", "0", "-1", "nan", "inf"]),
    "--separation-deg": st.sampled_from(["60", "0", "180", "-90", "1e308", "-1e308", "5e-324", "nan", "inf", "x"]),
}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=st.fixed_dictionaries({}, optional=REFINE_FLAGS), seed=st.integers(0, 2**64 - 1))
def test_refine_demo_fuzz_exits_documented_codes(capsys, flags, seed):
    # tiny runs at odd flag values: exit 0 with the last epoch's line and a
    # silent stderr, or exit 2 or 4 with one error line; never a traceback or
    # a warning
    flags = {"--width": "8", "--height": "8", "--frames": "2", "--epochs": "2"} | flags
    code, stdout, _ = _fuzz_main(capsys, ["refine-demo", "--seed", str(seed)] + [f"{f}={v}" for f, v in flags.items()])
    assert code in (0, 2, 4)
    if code == 0:
        assert stdout.startswith(f"epoch {flags['--epochs']}: mean ") and stdout.count("\n") == 1


@pytest.mark.parametrize("argv, code", [
    (["refine-demo", "--width", "8", "--height", "8", "--epochs", "2", "--seed", "0", "--lr", "1e300"], 4),
    (["sample", "--mu", "0,0,1", "--kappa", "1e308", "--n", "10", "--seed", "1"], 0),
], ids=["refine-demo-lr-1e300", "sample-kappa-1e308"])
def test_overflowing_runs_raise_no_numpy_warnings(tmp_path, argv, code):
    # the exit code and the error line report these runs; a raw numpy
    # RuntimeWarning on stderr would only repeat it
    if argv[0] == "sample":
        argv = argv + ["--out-csv", str(tmp_path / "s.csv")]
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert main(argv) == code
    assert [str(w.message) for w in record] == []
