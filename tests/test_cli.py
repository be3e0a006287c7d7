import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from angmf import mapio, metrics
from angmf.cli import main
from angmf.distributions import expected_angular_error
from angmf.mapio import KappaMap, NormalMap, load_weights

E_ALPHA_K1 = 1.1301368068173820266


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
                ["--mu", "0,0,1", "--kappa", "nan"]):
        with pytest.raises(SystemExit) as ei:
            main(base + bad)
        assert ei.value.code == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
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


FIT_NUMBERS = ["0", "-0", "1", "-0.5", "2e3", "1e-320", "5e-324", "1e308", "-1e308"]
FIT_TOKENS = FIT_NUMBERS + ["nan", "inf", "-inf", "one", "", "1e", "0x1"]
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
    csv.write_text("".join(line + newline for line in lines))
    out.unlink(missing_ok=True)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--samples-csv", str(csv), "--estimator", estimator, "--out-json", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
        payload = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert abs(math.sqrt(sum(x * x for x in payload["direction"])) - 1.0) < 1e-12
    else:
        assert err.count("\n") == 1 and err.startswith("error: ") and err.endswith("\n")


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


# -------------------------------------------------------- simulate-boundary


def test_simulate_boundary_median_wins(tmp_path):
    out = str(tmp_path / "sim.json")
    assert main(["simulate-boundary", "--seed", "11", "--out-json", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["trials"] == 100
    assert payload["median_wins"] + payload["mean_wins"] + payload["ties"] == 100
    assert payload["median_wins"] >= 95
    assert payload["median_error_deg_avg"] < payload["mean_error_deg_avg"]


@pytest.mark.parametrize("argv", [["--trials", "0"], ["--trials", "-3"], ["--samples", "0"]])
def test_simulate_boundary_rejects_non_positive_counts(argv, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["simulate-boundary", "--seed", "1"] + argv)
    assert ei.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


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
