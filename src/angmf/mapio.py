"""Map containers and file formats.

Normal maps (``SNMP1``) and kappa maps (``SKMP1``) share one layout:

    bytes 0..4    magic, b"SNMP1" or b"SKMP1"
    bytes 5..8    width,  little-endian uint32
    bytes 9..12   height, little-endian uint32
    bytes 13..    row-major payload of little-endian float32 values,
                  3 per pixel for normals, 1 per pixel for kappa

Invalid pixels are stored as quiet NaN (a full NaN triplet for normals).
Reads and writes round-trip bit for bit; any structural problem raises
FormatError carrying the byte offset of the first offending value.

The CSV readers and writers of sample lists, sparsification curves and
pixel selections live here too.  The CLI writes its JSON reports and the
``refine-demo`` epoch CSV itself.
"""

import math
import struct

import numpy as np

from .errors import DomainError, FormatError, ShapeError
from .sphere import UNIT_NORM_TOL, dot3, normalize

__all__ = [
    "NormalMap",
    "KappaMap",
    "read_normal_map",
    "write_normal_map",
    "read_kappa_map",
    "write_kappa_map",
    "write_curve_csv",
    "write_vectors_csv",
    "read_vectors_csv",
    "write_selection_csv",
]

MAGIC_NORMAL = b"SNMP1"
MAGIC_KAPPA = b"SKMP1"
_HEADER = struct.Struct("<5sII")


def _first(mask):
    """Flat index of the first True in ``mask``, or None."""
    bad = np.flatnonzero(mask.ravel())
    return int(bad[0]) if bad.size else None


class _Grid:
    """Size accessors and bitwise equality shared by the two map types."""

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.data.shape == other.data.shape and self.data.tobytes() == other.data.tobytes()


class NormalMap(_Grid):
    """An (H, W, 3) float32 grid of unit normals; invalid pixels are NaN triplets."""

    def __init__(self, data):
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 3 or data.shape[2] != 3:
            raise ShapeError(f"expected an (H, W, 3) array, got {data.shape}")
        # a NaN pixel has a NaN norm, so it fails the unit test; only an all-NaN one
        # is exempt.  Signalling NaN payloads are NaN pixels too: no warning.
        with np.errstate(invalid="ignore"):
            drift = np.sqrt(dot3(data, data))
            drift -= 1.0
            np.abs(drift, out=drift)
            bad = ~(drift < UNIT_NORM_TOL)
        bad &= ~(np.isnan(data[..., 0]) & np.isnan(data[..., 1]) & np.isnan(data[..., 2]))
        i = _first(bad)
        if i is not None:
            mixed = np.isnan(data.reshape(-1, 3)[i]).any()
            what = "mixes NaN and finite components" if mixed else "is not unit length"
            raise DomainError(f"pixel {i} {what}", index=i)
        self.data = data

    @classmethod
    def from_vectors(cls, vectors, valid=None):
        """Build a map from float vectors, normalizing and masking in one go."""
        v = np.asarray(vectors, dtype=np.float64)
        if v.ndim != 3 or v.shape[2] != 3:
            raise ShapeError(f"expected an (H, W, 3) array, got {v.shape}")
        out = np.full(v.shape, np.nan)
        if valid is None:
            valid = np.ones(v.shape[:2], dtype=bool)
        else:
            valid = np.asarray(valid, dtype=bool)
            if valid.shape != v.shape[:2]:
                raise ShapeError(f"valid mask {valid.shape} does not match {v.shape[:2]}")
        if np.any(valid):
            out[valid] = normalize(v[valid])
        return cls(out.astype(np.float32))

    @property
    def valid(self):
        return ~np.isnan(self.data[..., 0])


class KappaMap(_Grid):
    """An (H, W) float32 grid of concentrations; invalid pixels are NaN."""

    def __init__(self, data):
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 2:
            raise ShapeError(f"expected an (H, W) array, got {data.shape}")
        with np.errstate(invalid="ignore"):
            bad = ~np.isnan(data) & ~(np.isfinite(data) & (data >= 0.0))
        i = _first(bad)
        if i is not None:
            raise DomainError(f"pixel {i} has kappa {data.ravel()[i]}", index=i)
        self.data = data

    @property
    def valid(self):
        return ~np.isnan(self.data)


def _read_header(buf, magic, path):
    if len(buf) < _HEADER.size:
        raise FormatError(f"{path}: truncated header", offset=len(buf))
    got, width, height = _HEADER.unpack_from(buf)
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}", offset=0)
    return width, height


def _read_map(path, magic, cls, tail):
    """Read one map file; the constructor's first bad pixel becomes the FormatError offset."""
    with open(path, "rb") as f:
        buf = f.read()
    width, height = _read_header(buf, magic, path)
    pixel_bytes = 4 * math.prod(tail)
    expected = _HEADER.size + pixel_bytes * width * height
    if len(buf) != expected:
        raise FormatError(
            f"{path}: payload is {len(buf) - _HEADER.size} bytes, expected {expected - _HEADER.size}",
            offset=min(len(buf), expected),
        )
    data = np.frombuffer(buf, dtype="<f4", offset=_HEADER.size)
    try:
        return cls(data.reshape((height, width) + tail).copy())
    except DomainError as e:
        raise FormatError(f"{path}: {e}", offset=_HEADER.size + pixel_bytes * e.index) from None


def _write_map(path, magic, grid):
    with open(path, "wb") as f:
        f.write(_HEADER.pack(magic, grid.width, grid.height))
        f.write(grid.data.astype("<f4", copy=False).tobytes())


def write_normal_map(normal_map, path):
    _write_map(path, MAGIC_NORMAL, normal_map)


def read_normal_map(path):
    return _read_map(path, MAGIC_NORMAL, NormalMap, (3,))


def write_kappa_map(kappa_map, path):
    _write_map(path, MAGIC_KAPPA, kappa_map)


def read_kappa_map(path):
    return _read_map(path, MAGIC_KAPPA, KappaMap, ())


# Rows per formatted or parsed CSV batch: few small string objects are
# alive at once.  Fields are float reprs and ints, which csv.writer would
# never quote, so the joined lines are exactly its bytes.
_CSV_BATCH = 8192


def write_curve_csv(curve, path):
    with open(path, "w", newline="") as f:
        f.write("x_percent,value\r\n")
        f.write("".join([f"{int(x)},{v!r}\r\n" for x, v in zip(curve.x_percent.tolist(), curve.values.tolist())]))


def write_vectors_csv(vectors, path):
    v = np.asarray(vectors, dtype=np.float64)
    with open(path, "w", newline="") as f:
        f.write("x,y,z\r\n")
        for s in range(0, len(v), _CSV_BATCH):
            f.write("".join([f"{x!r},{y!r},{z!r}\r\n" for x, y, z in v[s:s + _CSV_BATCH].tolist()]))


def _is_header(line):
    return line.strip().lower().replace(" ", "") == "x,y,z"


def _data_lines(raw):
    """(byte offset, stripped text) of each non-empty line after an optional x,y,z header."""
    offset = 0
    for i, line in enumerate(raw.decode("utf-8", errors="replace").splitlines(keepends=True)):
        stripped = line.strip()
        if stripped and not (i == 0 and _is_header(stripped)):
            yield offset, stripped
        offset += len(line.encode("utf-8"))


def _bad_line_error(raw, path):
    """The FormatError of the first malformed line, else of the first non-finite one."""
    first_non_finite = None
    for offset, stripped in _data_lines(raw):
        parts = stripped.split(",")
        if len(parts) != 3:
            return FormatError(f"{path}: expected 3 columns, got {len(parts)}", offset=offset)
        try:
            values = [float(p) for p in parts]
        except ValueError:
            return FormatError(f"{path}: non-numeric field in {stripped!r}", offset=offset)
        if first_non_finite is None and not all(map(math.isfinite, values)):
            first_non_finite = (offset, stripped)
    offset, stripped = first_non_finite
    return FormatError(f"{path}: non-finite field in {stripped!r}", offset=offset)


def read_vectors_csv(path):
    """Read an x,y,z CSV back into an (N, 3) float array of finite values.

    Lines are parsed in batches.  A batch that fails any check sends the
    whole file through the line-by-line walk of ``_bad_line_error``, which
    names the first malformed line (or, if there is none, the first
    non-finite one) and its byte offset.
    """
    with open(path, "rb") as f:
        raw = f.read()
    lines = raw.decode("utf-8", errors="replace").splitlines()
    start = 1 if lines and _is_header(lines[0]) else 0
    out = np.empty((len(lines) - start, 3))
    n = 0
    for s in range(start, len(lines), _CSV_BATCH):
        batch = list(filter(None, map(str.strip, lines[s:s + _CSV_BATCH])))
        if any(t.count(",") != 2 for t in batch):
            raise _bad_line_error(raw, path)
        try:
            rows = np.fromiter(map(float, ",".join(batch).split(",")), np.float64, 3 * len(batch))
        except ValueError:
            raise _bad_line_error(raw, path) from None
        if not np.isfinite(rows).all():
            raise _bad_line_error(raw, path)
        out[n:n + len(batch)] = rows.reshape(-1, 3)
        n += len(batch)
    return out[:n]


def write_selection_csv(selection, path):
    with open(path, "w", newline="") as f:
        f.write("index,role\r\n")
        for role, idx in (("importance", selection.importance), ("coverage", selection.coverage)):
            for s in range(0, idx.size, _CSV_BATCH):
                f.write("".join([f"{i},{role}\r\n" for i in idx[s:s + _CSV_BATCH].tolist()]))
