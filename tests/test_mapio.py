import csv
import io
import json
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angmf import (
    KappaMap,
    NormalMap,
    read_kappa_map,
    read_normal_map,
    write_kappa_map,
    write_normal_map,
)
from angmf.errors import DomainError, FormatError, ShapeError
from angmf.mapio import (
    load_weights,
    read_vectors_csv,
    save_weights,
    write_curve_csv,
    write_epoch_csv,
    write_json,
    write_selection_csv,
    write_vectors_csv,
)
from angmf.cli import main
from angmf.metrics import MetricsReport, angular_errors, oracle_curve, summarize, valid_errors
from angmf.pixel_select import PixelSelection
from angmf.refine import EpochStats, init_mlp
from angmf.rng import RngState

from conftest import random_unit

EZ = [0.0, 0.0, 1.0]


def unit_grid(h, w, seed=0):
    gen = np.random.default_rng(seed)
    return random_unit(gen, h * w).reshape(h, w, 3)


# ----------------------------------------------------------- normal maps


def test_single_pixel_file_layout(tmp_path):
    path = tmp_path / "one.snm"
    write_normal_map(NormalMap.from_vectors(np.array([[EZ]])), path)
    raw = path.read_bytes()
    assert len(raw) == 25  # 13-byte header + 3 float32
    assert raw == b"SNMP1" + struct.pack("<II", 1, 1) + struct.pack("<3f", 0.0, 0.0, 1.0)


def test_normal_round_trip_bit_exact(tmp_path):
    m = NormalMap.from_vectors(unit_grid(64, 64, seed=1))
    path = tmp_path / "m.snm"
    write_normal_map(m, path)
    back = read_normal_map(path)
    assert back == m
    assert back.data.dtype == np.float32
    # writing again yields identical bytes
    path2 = tmp_path / "m2.snm"
    write_normal_map(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_normal_invalid_pixels_round_trip(tmp_path):
    vecs = np.array([[EZ, EZ]], dtype=float)
    valid = np.array([[True, False]])
    m = NormalMap.from_vectors(vecs, valid=valid)
    assert m.valid.tolist() == [[True, False]]
    path = tmp_path / "v.snm"
    write_normal_map(m, path)
    back = read_normal_map(path)
    assert np.array_equal(back.valid, valid)
    assert np.all(np.isnan(back.data[0, 1]))
    assert back == m


def test_normal_map_constructor_validation():
    with pytest.raises(ShapeError):
        NormalMap(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        NormalMap(np.array([[[0.0, 0.0, 0.5]]], dtype=np.float32))  # not unit
    bad = np.array([[[np.nan, 0.0, 1.0]]], dtype=np.float32)  # mixed NaN
    with pytest.raises(DomainError):
        NormalMap(bad)


def test_normal_map_accepts_float32_rounding():
    # float64 unit vectors rounded to float32 must stay within tolerance
    m = NormalMap.from_vectors(unit_grid(16, 16, seed=2))
    assert np.all(m.valid)


def test_read_bad_magic(tmp_path):
    path = tmp_path / "bad.snm"
    path.write_bytes(b"XXXX1" + struct.pack("<II", 1, 1) + struct.pack("<3f", 0, 0, 1))
    with pytest.raises(FormatError) as ei:
        read_normal_map(path)
    assert ei.value.offset == 0


def test_read_kappa_magic_rejected_for_normals(tmp_path):
    path = tmp_path / "k.snm"
    path.write_bytes(b"SKMP1" + struct.pack("<II", 1, 1) + struct.pack("<3f", 0, 0, 1))
    with pytest.raises(FormatError) as ei:
        read_normal_map(path)
    assert ei.value.offset == 0


def test_read_truncated_header(tmp_path):
    path = tmp_path / "short.snm"
    path.write_bytes(b"SNMP1" + b"\x00\x00")
    with pytest.raises(FormatError) as ei:
        read_normal_map(path)
    assert ei.value.offset == 7


def test_read_truncated_payload(tmp_path):
    path = tmp_path / "trunc.snm"
    full = b"SNMP1" + struct.pack("<II", 2, 2) + b"\x00" * 48
    path.write_bytes(full[:20])
    with pytest.raises(FormatError) as ei:
        read_normal_map(path)
    assert ei.value.offset == 20


def test_read_oversized_payload(tmp_path):
    path = tmp_path / "extra.snm"
    payload = struct.pack("<3f", 0, 0, 1)
    path.write_bytes(b"SNMP1" + struct.pack("<II", 1, 1) + payload + b"junk")
    with pytest.raises(FormatError) as ei:
        read_normal_map(path)
    assert ei.value.offset == 25  # the expected end of file


def test_read_non_unit_pixel_offset(tmp_path):
    path = tmp_path / "nonunit.snm"
    good = struct.pack("<3f", 0.0, 0.0, 1.0)
    bad = struct.pack("<3f", 0.0, 0.0, 0.5)
    path.write_bytes(b"SNMP1" + struct.pack("<II", 3, 1) + good + good + bad)
    with pytest.raises(FormatError) as ei:
        read_normal_map(path)
    assert ei.value.offset == 13 + 12 * 2


def test_read_mixed_nan_pixel_offset(tmp_path):
    path = tmp_path / "mixed.snm"
    good = struct.pack("<3f", 0.0, 0.0, 1.0)
    mixed = struct.pack("<3f", math.nan, 0.0, 1.0)
    path.write_bytes(b"SNMP1" + struct.pack("<II", 2, 1) + mixed + good)
    with pytest.raises(FormatError) as ei:
        read_normal_map(path)
    assert ei.value.offset == 13


def test_read_reports_first_bad_pixel(tmp_path):
    # a non-unit pixel 0 comes before a mixed NaN pixel 1
    path = tmp_path / "order.snm"
    non_unit = struct.pack("<3f", 0.0, 0.0, 0.5)
    mixed = struct.pack("<3f", math.nan, 0.0, 1.0)
    path.write_bytes(b"SNMP1" + struct.pack("<II", 2, 1) + non_unit + mixed)
    with pytest.raises(FormatError) as ei:
        read_normal_map(path)
    assert ei.value.offset == 13
    assert "pixel 0 is not unit length" in str(ei.value)


def test_constructor_error_carries_first_bad_index():
    data = np.tile(np.float32([0.0, 0.0, 1.0]), (2, 3, 1))
    data[1, 0] = [np.nan, 0.0, 1.0]
    data[1, 2] = [0.0, 0.0, 2.0]
    with pytest.raises(DomainError) as ei:
        NormalMap(data)
    assert ei.value.index == 3
    k = np.ones((2, 2), dtype=np.float32)
    k[0, 1] = np.nan  # invalid, not bad
    k[1, 1] = -1.0
    with pytest.raises(DomainError) as ei:
        KappaMap(k)
    assert ei.value.index == 3


def _float32_edge(toward):
    """The last float32 z from 1 toward ``toward`` with float64 |z - 1| < 1e-6, and the next float32."""
    z = np.float32(1.0)
    while abs(float(np.nextafter(z, np.float32(toward))) - 1.0) < 1e-6:
        z = np.nextafter(z, np.float32(toward))
    return float(z), float(np.nextafter(z, np.float32(toward)))


IN_HI, OUT_HI = _float32_edge(2.0)
IN_LO, OUT_LO = _float32_edge(0.0)
# quiet NaN with a payload, negative quiet NaN, signalling NaN
NAN_BITS = np.array([0x7FC00001, 0xFFC00000, 0x7FA00000, 0xFFFFFFFF], dtype=np.uint32)
PAYLOAD_NANS = list(NAN_BITS[:3].view(np.float32))
SNAN = NAN_BITS[2:3].view(np.float32)[0]
MIXED, NOT_UNIT = "mixes NaN and finite components", "is not unit length"


@pytest.mark.parametrize("pixels, first, what", [
    ({5: [np.nan, 0.0, 1.0]}, 5, MIXED),
    ({2: [0.0, np.nan, np.nan]}, 2, MIXED),
    ({9: [np.nan, np.nan, 1.0]}, 9, MIXED),
    ({10: [np.nan, 1.0, np.nan]}, 10, MIXED),
    ({1: [SNAN, 0.0, 1.0]}, 1, MIXED),
    ({7: [np.inf, 0.0, 0.0]}, 7, NOT_UNIT),
    ({4: [0.0, 0.0, -np.inf]}, 4, NOT_UNIT),
    ({6: [np.inf, np.nan, 0.0]}, 6, MIXED),
    ({3: [0.0, 0.0, 0.5]}, 3, NOT_UNIT),
    ({0: [0.0, 0.0, 0.0]}, 0, NOT_UNIT),
    ({8: [0.0, 0.0, 2.0], 9: [np.nan, 0.0, 1.0]}, 8, NOT_UNIT),
    ({8: [np.nan, 0.0, 1.0], 9: [0.0, 0.0, 2.0]}, 8, MIXED),
    ({1: PAYLOAD_NANS}, None, None),
    ({1: PAYLOAD_NANS, 10: [0.0, 0.0, 0.5]}, 10, NOT_UNIT),
    ({4: [0.0, 0.0, IN_HI], 5: [-IN_LO, 0.0, 0.0]}, None, None),
    ({4: [0.0, 0.0, IN_HI], 5: [0.0, OUT_HI, 0.0]}, 5, NOT_UNIT),
    ({4: [-IN_LO, 0.0, 0.0], 11: [0.0, 0.0, -OUT_LO]}, 11, NOT_UNIT),
])
def test_map_validation_first_bad_pixel(tmp_path, pixels, first, what):
    data = unit_grid(3, 4, seed=5).astype(np.float32).reshape(-1, 3)
    for i, value in pixels.items():
        data[i] = value
    data = data.reshape(3, 4, 3)
    path = tmp_path / "m.snm"
    path.write_bytes(b"SNMP1" + struct.pack("<II", 4, 3) + data.astype("<f4").tobytes())
    if first is None:
        assert read_normal_map(path).data.tobytes() == data.tobytes()
        return
    with pytest.raises(DomainError) as ei:
        NormalMap(data)
    assert ei.value.index == first
    assert str(ei.value) == f"pixel {first} {what}"
    with pytest.raises(FormatError) as ei:
        read_normal_map(path)
    assert ei.value.offset == 13 + 12 * first
    assert f"{path}: pixel {first} {what}" in str(ei.value)


def test_float32_edges_straddle_the_unit_tolerance():
    assert abs(IN_HI - 1.0) < 1e-6 <= abs(OUT_HI - 1.0)
    assert abs(IN_LO - 1.0) < 1e-6 <= abs(OUT_LO - 1.0)


@settings(max_examples=150, deadline=None)
@given(
    height=st.integers(0, 5),
    width=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    nan_share=st.sampled_from([0.0, 0.4, 1.0]),
)
def test_map_files_round_trip_property(tmp_path_factory, height, width, seed, nan_share):
    # invalid pixels and kappas carry NaNs of every sign, payload and kind
    gen = np.random.default_rng(seed)
    nans = NAN_BITS.view(np.float32)
    normals = unit_grid(height, width, seed=seed).astype(np.float32)
    holes = gen.random((height, width)) < nan_share
    normals[holes] = nans[gen.integers(0, nans.size, (int(holes.sum()), 1))]
    kappa = gen.choice(np.float32([0.0, -0.0, 1e-30, 3.5, 7e4]), (height, width))
    holes = gen.random((height, width)) < nan_share
    kappa[holes] = nans[gen.integers(0, nans.size, int(holes.sum()))]
    d = tmp_path_factory.mktemp("maps")
    for write, read, cls, data, magic in ((write_normal_map, read_normal_map, NormalMap, normals, b"SNMP1"),
                                          (write_kappa_map, read_kappa_map, KappaMap, kappa, b"SKMP1")):
        m = cls(data)
        write(m, d / "a")
        raw = (d / "a").read_bytes()
        assert raw == magic + struct.pack("<II", width, height) + data.astype("<f4").tobytes()
        back = read(d / "a")
        assert back == m and back.data.shape == data.shape
        write(back, d / "b")
        assert (d / "b").read_bytes() == raw


# ------------------------------------------------------------ kappa maps


def test_kappa_round_trip(tmp_path):
    gen = np.random.default_rng(3)
    data = gen.uniform(0.0, 100.0, size=(17, 9)).astype(np.float32)
    data[4, 4] = np.nan
    m = KappaMap(data)
    assert m.valid.sum() == 17 * 9 - 1
    path = tmp_path / "k.skm"
    write_kappa_map(m, path)
    back = read_kappa_map(path)
    assert back == m
    assert path.stat().st_size == 13 + 4 * 17 * 9


def test_kappa_constructor_validation():
    with pytest.raises(DomainError):
        KappaMap(np.array([[-1.0]], dtype=np.float32))
    with pytest.raises(DomainError):
        KappaMap(np.array([[np.inf]], dtype=np.float32))
    with pytest.raises(ShapeError):
        KappaMap(np.zeros((2, 2, 1), dtype=np.float32))


def test_kappa_read_negative_offset(tmp_path):
    path = tmp_path / "neg.skm"
    path.write_bytes(b"SKMP1" + struct.pack("<II", 3, 1) + struct.pack("<3f", 1.0, -2.0, 3.0))
    with pytest.raises(FormatError) as ei:
        read_kappa_map(path)
    assert ei.value.offset == 13 + 4 * 1


def test_kappa_read_bad_magic(tmp_path):
    path = tmp_path / "bad.skm"
    path.write_bytes(b"SNMP1" + struct.pack("<II", 1, 1) + struct.pack("<f", 1.0))
    with pytest.raises(FormatError) as ei:
        read_kappa_map(path)
    assert ei.value.offset == 0


def test_kappa_zero_size_map(tmp_path):
    m = KappaMap(np.zeros((0, 0), dtype=np.float32))
    path = tmp_path / "empty.skm"
    write_kappa_map(m, path)
    back = read_kappa_map(path)
    assert back.data.shape == (0, 0)


# -------------------------------------------------------------- csv / json


def test_vectors_csv_round_trip(tmp_path):
    gen = np.random.default_rng(4)
    v = random_unit(gen, 23)
    path = tmp_path / "v.csv"
    write_vectors_csv(v, path)
    head = path.read_text().splitlines()[0]
    assert head == "x,y,z"
    back = read_vectors_csv(path)
    assert np.array_equal(back, v)  # repr round-trips float64 exactly


def test_vectors_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,z\n1.0,2.0\n")
    with pytest.raises(FormatError) as ei:
        read_vectors_csv(path)
    assert ei.value.offset == 6
    path.write_text("x,y,z\n1.0,2.0,fish\n")
    with pytest.raises(FormatError):
        read_vectors_csv(path)
    for field in ("nan", "inf", "-Infinity"):
        path.write_text(f"x,y,z\n0.0,0.0,1.0\n0.0,{field},1.0\n")
        with pytest.raises(FormatError) as ei:
            read_vectors_csv(path)
        assert ei.value.offset == 18  # start of the third line


def test_vectors_csv_empty(tmp_path):
    path = tmp_path / "none.csv"
    write_vectors_csv(np.zeros((0, 3)), path)
    assert read_vectors_csv(path).shape == (0, 3)


def csv_writer_bytes(header, rows):
    """What csv.writer writes for ``rows``, each field a str."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("n", [0, 1, 8192, 8193, 20000])
def test_vectors_csv_writes_csv_writer_bytes(tmp_path, n):
    v = np.random.default_rng(n).standard_normal((n, 3))
    specials = np.array([[-0.0, 5e-324, 1e16], [-5e-324, 1e22, 0.1], [1e-300, -1e16, 0.0]])
    v[:3] = specials[: min(n, 3)]
    path = tmp_path / "v.csv"
    write_vectors_csv(v, path)
    assert path.read_bytes() == csv_writer_bytes(["x", "y", "z"], [[repr(float(x)) for x in row] for row in v])


def reference_read(path):
    """The line-by-line reader that the batched one must match: rows, or (message, offset) of the error."""
    raw = path.read_bytes()
    rows, offset = [], 0
    for i, line in enumerate(raw.decode("utf-8", errors="replace").splitlines(keepends=True)):
        stripped = line.strip()
        if stripped and not (i == 0 and stripped.lower().replace(" ", "") == "x,y,z"):
            parts = stripped.split(",")
            if len(parts) != 3:
                return f"{path}: expected 3 columns, got {len(parts)}", offset
            try:
                rows.append(([float(p) for p in parts], offset, stripped))
            except ValueError:
                return f"{path}: non-numeric field in {stripped!r}", offset
        offset += len(line.encode("utf-8"))
    for values, offset, stripped in rows:
        if not all(map(math.isfinite, values)):
            return f"{path}: non-finite field in {stripped!r}", offset
    return np.array([values for values, _, _ in rows], dtype=np.float64).reshape(-1, 3)


_GOOD = "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in np.random.default_rng(7).standard_normal((9000, 3)).tolist())


@pytest.mark.parametrize(
    "text",
    [
        "x,y,z\n\n1,2,3\n   \n4,5,6\n",
        "x,y,z\r\n1,2,3\r\n4,5,6\r\n",
        "x,y,z\r1,2,3\r4,5,6",
        " X, Y , Z\n1, 2 ,3\n",
        "\nx,y,z\n1,2,3\n",  # a header only counts on the first line
        "1,2,3\n4,5,6",
        "",
        "x,y,z\r\n",
        "x,y,z\n" + _GOOD + "1,2\n",
        "x,y,z\r\n" + _GOOD.replace("\n", "\r\n") + "\r\n1,2,fish\r\n" + _GOOD,
        "x,y,z\r" + _GOOD.replace("\n", "\r") + "1,,3\r",
        "x,y,z\n1,nan,3\n" + _GOOD + "1,2,3,4\n",  # non-finite first, malformed later
        "x,y,z\n" + _GOOD + "1,inf,3\n" + _GOOD + "-Infinity,1,3\n",
        "x,y,z\n1,2,3\n\xe9,1,2\n",
    ],
)
def test_vectors_csv_reader_matches_line_by_line(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    want = reference_read(path)
    if isinstance(want, np.ndarray):
        got = read_vectors_csv(path)
        assert got.shape == want.shape and np.array_equal(got, want)
    else:
        with pytest.raises(FormatError) as ei:
            read_vectors_csv(path)
        assert (str(ei.value), ei.value.offset) == (f"{want[0]} (byte offset {want[1]})", want[1])


def test_metrics_json_layout(tmp_path):
    # metrics JSON is written by the CLI; 30 deg is nudged up so float32
    # storage cannot flip it across the strict pct_30 threshold
    tilts = np.radians([10.0, 20.0, 30.0001, 40.0])
    pred = np.stack([np.sin(tilts), np.zeros(4), np.cos(tilts)], axis=-1).reshape(2, 2, 3)
    p_pred, p_gt, path = tmp_path / "p.snmp", tmp_path / "g.snmp", tmp_path / "m.json"
    write_normal_map(NormalMap.from_vectors(pred), p_pred)
    write_normal_map(NormalMap.from_vectors(np.tile(EZ, (2, 2, 1))), p_gt)
    assert main(["eval", "--pred", str(p_pred), "--gt", str(p_gt), "--out-json", str(path)]) == 0
    text = path.read_text()
    assert text.endswith("\n")
    d = json.loads(text)
    assert d["mean"] == pytest.approx(25.0, abs=1e-3)
    assert d["pct_30"] == 50.0
    assert d == summarize(valid_errors(angular_errors(read_normal_map(p_pred), read_normal_map(p_gt)))).to_json_dict()
    assert list(d) == sorted(d)


def test_curve_csv_layout(tmp_path):
    c = oracle_curve(np.arange(100, dtype=float))
    path = tmp_path / "c.csv"
    write_curve_csv(c, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_percent,value"
    assert len(lines) == 101
    assert lines[1] == "1,0.0"
    assert lines[-1].startswith("100,")
    rows = [[str(x), repr(float(v))] for x, v in zip(range(1, 101), c.values)]
    assert path.read_bytes() == csv_writer_bytes(["x_percent", "value"], rows)


def test_selection_csv_layout(tmp_path):
    sel = PixelSelection(importance=np.array([2, 5]), coverage=np.array([1, 7]))
    path = tmp_path / "s.csv"
    write_selection_csv(sel, path)
    lines = path.read_text().splitlines()
    assert lines == ["index,role", "2,importance", "5,importance", "1,coverage", "7,coverage"]


@pytest.mark.parametrize("importance, coverage", [
    ([2, 5], [1, 7]),
    (list(range(8193)), [9000, 307199]),  # crosses the writer's 8192-row batches
    ([], [0, 3, 307199]),
    ([4, 10, 99999], []),
    ([], []),
])
def test_selection_csv_bytes_match_csv_writer(tmp_path, importance, coverage):
    sel = PixelSelection(importance=np.array(importance, dtype=np.intp),
                         coverage=np.array(coverage, dtype=np.intp))
    path = tmp_path / "s.csv"
    write_selection_csv(sel, path)
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["index", "role"])
    w.writerows([int(i), "importance"] for i in sel.importance)
    w.writerows([int(i), "coverage"] for i in sel.coverage)
    assert path.read_bytes() == ref.getvalue().encode()


def test_epoch_csv_writes_csv_writer_bytes(tmp_path):
    rows = [(1, -0.0, 5e-324, 1e16, 0.1), (2, 12.5, 1e22, -5e-324, -1e16), (12, 1e-300, 0.0, 3.0, 2.0 / 3.0)]
    stats = [EpochStats(epoch=e, nll=nll, report=MetricsReport(m, med, r, pct_below={}))
             for e, m, med, r, nll in rows]
    path = tmp_path / "e.csv"
    write_epoch_csv(stats, path)
    want = [[str(row[0])] + [repr(v) for v in row[1:]] for row in rows]
    assert path.read_bytes() == csv_writer_bytes(["epoch", "mean_deg", "median_deg", "rmse_deg", "nll"], want)


def _map_file(path):
    write_normal_map(NormalMap.from_vectors(unit_grid(2, 3)), path)


def _kappa_file(path):
    write_kappa_map(KappaMap(np.arange(6, dtype=np.float32).reshape(2, 3)), path)


def _weights_file(path):
    save_weights(init_mlp(3, hidden_dims=(2,), rng=RngState(12)), path)


# (writer, reader, magic, header bytes, bytes before the payload)
BINARY_FORMATS = {
    "SNMP1": (_map_file, read_normal_map, b"SNMP1", 13, 13),
    "SKMP1": (_kappa_file, read_kappa_map, b"SKMP1", 13, 13),
    "RMLP1": (_weights_file, load_weights, b"RMLP1", 9, 9 + 4 * 3),
}


@pytest.mark.parametrize("name", BINARY_FORMATS)
def test_binary_readers_share_structural_errors(tmp_path, name):
    write, read, magic, header, head = BINARY_FORMATS[name]
    good = tmp_path / "good.bin"
    write(good)
    raw = good.read_bytes()
    path = tmp_path / "bad.bin"

    def error(data):
        path.write_bytes(data)
        with pytest.raises(FormatError) as ei:
            read(path)
        return str(ei.value), ei.value.offset

    for k in range(header):
        assert error(raw[:k]) == (f"{path}: truncated header (byte offset {k})", k)
    assert error(b"XXXX1" + raw[5:]) == (f"{path}: bad magic b'XXXX1', expected {magic!r} (byte offset 0)", 0)
    expected = len(raw) - head
    for data in (raw[:-1], raw + b"\0"):
        end = min(len(data), len(raw))
        assert error(data) == (f"{path}: payload is {len(data) - head} bytes, expected {expected} "
                               f"(byte offset {end})", end)


def _reference_dump_json(payload, path):
    """The CLI's JSON writer before it moved into mapio."""
    if path is None:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")


def test_write_json_matches_reference(tmp_path, capsys):
    payload = {"zeta": [0.1, -0.0, 5e-324], "alpha": {"b": True, "a": None}, "n": 3, "1e16": 1e16,
               "s": "x\u00e9"}
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    write_json(payload, str(got))
    _reference_dump_json(payload, str(want))
    assert got.read_bytes() == want.read_bytes()
    write_json(payload, None)
    from_write_json = capsys.readouterr().out
    _reference_dump_json(payload, None)
    assert from_write_json == capsys.readouterr().out == want.read_text()
