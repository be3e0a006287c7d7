"""Every file format of the package, read and written in one place.

Normal maps (``SNMP1``) and kappa maps (``SKMP1``) share one layout:

    bytes 0..4    magic, b"SNMP1" or b"SKMP1"
    bytes 5..8    width,  little-endian uint32
    bytes 9..12   height, little-endian uint32
    bytes 13..    row-major payload of little-endian float32 values,
                  3 per pixel for normals, 1 per pixel for kappa

Invalid pixels are stored as quiet NaN (a full NaN triplet for normals).

Refinement-MLP weights use the ``RMLP1`` format:

    bytes 0..4   magic b"RMLP1"
    bytes 5..8   L = number of layers, little-endian uint32
    then         L + 1 layer widths, little-endian uint32
    then         per layer: weights (out x in, row-major) then bias,
                 all little-endian float32

Reads and writes round-trip bit for bit; any structural problem raises
FormatError carrying the byte offset of the first offending value.

The CSVs of sample lists, sparsification curves, pixel selections and
``refine-demo`` epochs live here too, as does the JSON of the CLI's
reports: indented by 2, keys sorted, one trailing newline.  Each float in a
CSV is exactly its ``repr``.  Vector CSVs take that text from a numpy port of
Ryu in the band 1e-4 <= |x| < 1 and from ``repr`` elsewhere (see _CSV_BATCH).
They are read back to the bits ``float()`` gives each field: a vectorised
parser (SWAR digits, Eisel-Lemire rounding) takes fields -?D*(.D*)? of at
most 19 significant digits in blocks of plain ASCII rows, and ``float()``
every other field; a file with any other block, or a field that fails,
is read by one line walk from its start (see _CSV_BLOCK).
"""

import json
import math
import os
import struct
import sys

import numpy as np

from .errors import DomainError, FormatError, ShapeError
from .refine import RefineMLP
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
    "write_epoch_csv",
    "write_json",
    "save_weights",
    "load_weights",
]

MAGIC_NORMAL = b"SNMP1"
MAGIC_KAPPA = b"SKMP1"
MAGIC_WEIGHTS = b"RMLP1"
_HEADER = struct.Struct("<5sII")  # magic, width, height
_WEIGHTS_HEADER = struct.Struct("<5sI")  # magic, number of layers


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
        # A float32 sum of squares is within 2e-7 (relative) of the exact one,
        # so one in [1 - 1e-6, 1 + 1e-6] has a float64 norm within 1e-6 of 1.
        # The other pixels take the float64 test, where a NaN pixel has a NaN
        # norm and fails; only an all-NaN one is exempt.  Signalling NaN
        # payloads and squares past float32's range raise no warning.
        with np.errstate(invalid="ignore", over="ignore"):
            sq = np.square(data)
            s = sq[..., 0] + sq[..., 1]
            s += sq[..., 2]
            bad = np.flatnonzero(~((s >= np.float32(1 - UNIT_NORM_TOL)) & (s <= np.float32(1 + UNIT_NORM_TOL))))
            if bad.size:
                p = data.reshape(-1, 3)[bad]
                bad = bad[~(np.abs(np.sqrt(dot3(p, p)) - 1.0) < UNIT_NORM_TOL) & ~np.isnan(p).all(axis=1)]
        if bad.size:
            i = int(bad[0])
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


def _read_file(path, header, magic):
    """The bytes of ``path`` as one uint8 array, and the fields that follow the magic in its ``header``."""
    with open(path, "rb") as f:  # into one buffer from its byte 3: a map payload (file byte 13) is 4-aligned
        buf = np.empty(3 + os.fstat(f.fileno()).st_size, dtype=np.uint8)
        buf = buf[:3 + f.readinto(memoryview(buf)[3:])]
        if rest := f.read():  # a pipe, or a file that grew
            buf = np.concatenate([buf, np.frombuffer(rest, dtype=np.uint8)])
    buf = buf[3:]
    if len(buf) < header.size:
        raise FormatError(f"{path}: truncated header", offset=len(buf))
    got, *fields = header.unpack_from(buf)
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}", offset=0)
    return buf, fields


def _check_size(buf, head, expected, path):
    """Reject a file that is not ``expected`` bytes long; ``head`` bytes precede its payload."""
    if len(buf) != expected:
        raise FormatError(f"{path}: payload is {len(buf) - head} bytes, expected {expected - head}",
                          offset=min(len(buf), expected))


def _read_map(path, magic, cls, tail):
    """Read one map file; the constructor's first bad pixel becomes the FormatError offset."""
    buf, (width, height) = _read_file(path, _HEADER, magic)
    pixel_bytes = 4 * math.prod(tail)
    _check_size(buf, _HEADER.size, _HEADER.size + pixel_bytes * width * height, path)
    data = buf[_HEADER.size:].view("<f4").reshape((height, width) + tail)
    try:
        return cls(data)
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


def save_weights(mlp, path):
    dims = mlp.dims
    with open(path, "wb") as f:
        f.write(_WEIGHTS_HEADER.pack(MAGIC_WEIGHTS, len(mlp.weights)))
        f.write(struct.pack(f"<{len(dims)}I", *dims))
        for w, b in zip(mlp.weights, mlp.biases):
            f.write(w.astype("<f4").tobytes())
            f.write(b.astype("<f4").tobytes())


def load_weights(path):
    buf, (n_layers,) = _read_file(path, _WEIGHTS_HEADER, MAGIC_WEIGHTS)
    head = _WEIGHTS_HEADER.size + 4 * (n_layers + 1)
    if n_layers < 1 or len(buf) < head:
        raise FormatError(f"{path}: truncated dimension table", offset=min(len(buf), _WEIGHTS_HEADER.size))
    dims = struct.unpack_from(f"<{n_layers + 1}I", buf, _WEIGHTS_HEADER.size)
    if 0 in dims:
        raise FormatError(f"{path}: layer width {dims.index(0)} is 0", offset=_WEIGHTS_HEADER.size + 4 * dims.index(0))
    payload = sum(4 * (dims[l] * dims[l + 1] + dims[l + 1]) for l in range(n_layers))
    _check_size(buf, head, head + payload, path)
    arrays = []  # weights and biases, alternating, in file order
    off = head
    for l in range(n_layers):
        for what, shape in (("weight", (dims[l + 1], dims[l])), ("bias", (dims[l + 1],))):
            a = np.frombuffer(buf, dtype="<f4", count=math.prod(shape), offset=off).astype(np.float64)
            bad = _first(~np.isfinite(a))
            if bad is not None:
                raise FormatError(f"{path}: non-finite {what} in layer {l}", offset=off + 4 * bad)
            arrays.append(a.reshape(shape))
            off += 4 * a.size
    return RefineMLP(weights=arrays[0::2], biases=arrays[1::2])


def write_json(payload, path):
    """Write ``payload`` as a JSON report to ``path``, or to stdout when ``path`` is None."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


# Rows per formatted CSV batch: few small string objects, or one
# (3 * rows, 32)-byte field matrix, are alive at once.  Fields are float
# reprs and ints, which csv.writer would never quote, so the joined lines are
# exactly its bytes.  A vector field x = m2 * 2**(be - 1075) in the band
# 1e-4 <= |x| < 1 (biased exponent be 1009..1022, where repr prints fixed
# notation) takes Ryu's shortest digits (Adams, PLDI 2018).  With e2 = be -
# 1077, q = log10(5**-e2) - 1 and i = -e2 - q in 18..22, 5**i < 2**52 is
# exact and no Ryu table is needed: vr, vp and vm are floor((4*m2 + {0, 2,
# -2}) * 5**i / 2**q), digits go while vp // 10 > vm // 10, and vr rounds up
# from a last removed digit >= 5.  Every other field is ``repr(float(x))``:
# +-0, NaN, +-inf, subnormals, |x| >= 1, |x| < 1e-4 and Ryu's trailing-zero
# case, m2 a multiple of 2**(q-2), which holds the powers of two, the only
# fields with mmShift 0.  Ryu's round-up at vr == vm never fires on the band:
# vr - vm and vp - vr are floor(h) or ceil(h) for h = 2 * 5**i / 2**q, so when
# vr keeps vm's digits and (vm, vp] holds a multiple of 10**r, vr's removed
# rest is at least max(floor(h), 10**r - ceil(h)) >= 10**r / 2 and rounds up.
_CSV_BATCH = 8192
_POW5 = np.array([5**k for k in range(23)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
# four digits per uint32: "0042" at 42, and the leading form "\0\042" at 10000 + 42
# (built from arrays under 128 KiB, so importing leaves glibc's mmap threshold where it was)
_QUADS = np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16)
_QUADS = np.concatenate([(_QUADS % 10 + 48).astype(np.uint8), (_QUADS % 10 + 48).astype(np.uint8) * (_QUADS > 0)])
_QUADS = _QUADS.view(np.uint32).ravel()
# a field's first 8 bytes: sign, "0.", then -decpt zeros; row 4 * sign - decpt
_PREFIX = np.frombuffer(b"".join((s + b"0." + b"0" * z).ljust(8, b"\0") for s in (b"", b"-") for z in range(4)),
                        dtype=np.uint32).reshape(8, 2)
_DELIMS = np.frombuffer(b",\0\0\0,\0\0\0\r\n\0\0", dtype=np.uint32)


def _mul128(a, b):
    """(hi, lo): the 128-bit products of two uint64 arrays, on 32-bit limbs."""
    m32, s32 = np.uint64(2**32 - 1), np.uint64(32)
    a_lo, a_hi, b_lo, b_hi = a & m32, a >> s32, b & m32, b >> s32
    ll, lh = a_lo * b_lo, a_lo * b_hi
    cross = (ll >> s32) + (lh & m32) + a_hi * b_lo  # < 2**64
    return a_hi * b_hi + (lh >> s32) + (cross >> s32), (cross << s32) | (ll & m32)


def _shortest_digits(x):
    """(usable, digits, decpt) of a flat float64 array; usable x (see _CSV_BATCH) is 0.DIGITS * 10**decpt."""
    bits = x.view(np.uint64)
    be = (bits >> np.uint64(52)).astype(np.intp) & 0x7FF
    bec = np.clip(be, 1009, 1022)  # keeps the shifts in range off the band
    q = ((1077 - bec) * 732923 >> 20) - 1
    qu = q.astype(np.uint64)
    pow5 = _POW5[1077 - bec - q]
    mv = ((bits & np.uint64(2**52 - 1)) | np.uint64(2**52)) << np.uint64(2)
    hi, lo = _mul128(mv, pow5)  # vr's 128 bits; vp adds 2 * 5**i, vm subtracts it
    lp, lm = lo + (pow5 << np.uint64(1)), lo - (pow5 << np.uint64(1))
    up = np.uint64(64) - qu
    vr = (hi << up) | (lo >> qu)
    p = ((hi + (lp < lo)) << up) | (lp >> qu)
    m = ((hi - (lm > lo)) << up) | (lm >> qu)
    removed = np.zeros(x.size, dtype=np.intp)
    p, m = p // np.uint64(10), m // np.uint64(10)
    while (more := p > m).any():  # once p <= m it stays so for every further digit
        removed += more
        p, m = p // np.uint64(10), m // np.uint64(10)
    scale = _POW10[removed]
    out = vr // scale
    out += vr - out * scale >= scale >> np.uint64(1)
    decpt = q + bec - 1077 + removed + np.searchsorted(_POW10, out, side="right")
    usable = (be == bec) & (decpt >= -3) & ((mv & ((np.uint64(1) << qu) - np.uint64(1))) != 0)
    return usable, out, decpt


def _quad_cells(x, cells):
    """Write nonnegative integers ``x`` into the (N, c) uint32 ``cells`` as _QUADS, last column first."""
    q = x.dtype.type(10000)
    for c in range(cells.shape[1] - 1, -1, -1):
        rest = x // q
        cells[:, c] = np.take(_QUADS, x - rest * q + (x < q) * q)
        x = rest


def _vector_rows(v):
    """The ``x,y,z\\r\\n`` lines of an (N, 3) float64 array as bytes, every field exactly its repr."""
    x = v.ravel()
    usable, digits, decpt = _shortest_digits(x)
    # 32 bytes per field as 8 uint32 cells: prefix, 20 right-aligned digit bytes, delimiter; NULs are dropped
    cells = np.empty((x.size, 8), dtype=np.uint32)
    cells[:, :2] = np.take(_PREFIX, np.signbit(x) * 4 - decpt, axis=0, mode="clip")
    _quad_cells(digits, cells[:, 2:7])
    cells.reshape(len(v), 3, 8)[:, :, 7] = _DELIMS
    text = cells.view(np.uint8)
    for k in np.flatnonzero(~usable).tolist():
        text[k, :28] = np.frombuffer(repr(float(x[k])).encode().ljust(28, b"\0"), dtype=np.uint8)
    return text.tobytes().translate(None, b"\0")


def write_curve_csv(curve, path):
    with open(path, "w", newline="") as f:
        f.write("x_percent,value\r\n")
        f.write("".join([f"{int(x)},{v!r}\r\n" for x, v in zip(curve.x_percent.tolist(), curve.values.tolist())]))


def write_vectors_csv(vectors, path):
    v = np.asarray(vectors, dtype=np.float64)
    with open(path, "wb") as f:
        f.write(b"x,y,z\r\n")
        for s in range(0, len(v), _CSV_BATCH):
            f.write(_vector_rows(v[s:s + _CSV_BATCH]))


def _is_header(line):
    return line.strip().lower().replace(" ", "") == "x,y,z"


def _walk_lines(raw, path):
    """Each field's float() value, or the FormatError of the first malformed line, else of the first non-finite one."""
    values, non_finite, end = [], None, 0
    for i, line in enumerate(raw.decode("utf-8", errors="replace").splitlines(keepends=True)):
        start, end = end, end + len(line.encode("utf-8"))  # the line's byte offsets
        stripped = line.strip()
        if not stripped or i == 0 and _is_header(stripped):  # blank lines and an x,y,z first line
            continue
        parts = stripped.split(",")
        if len(parts) != 3:
            raise FormatError(f"{path}: expected 3 columns, got {len(parts)}", offset=start)
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise FormatError(f"{path}: non-numeric field in {stripped!r}", offset=start) from None
        if non_finite is None and not all(map(math.isfinite, row)):
            non_finite = FormatError(f"{path}: non-finite field in {stripped!r}", offset=start)
        values += row
    if non_finite is not None:
        raise non_finite
    return values


# Vector CSVs are read in blocks of about _CSV_BLOCK bytes, cut after a "\n".
# A block takes the fast path when its bytes are printable ASCII, "\r" and
# "\n", each "\r" comes right before a "\n" and its delimiters repeat as ",",
# ",", "\n"; any other block sends the whole file through _walk_lines.
# A fast field -?D*(.D*)? of at most 24 bytes after its sign is read from the
# 24 bytes that end it, as 3 little-endian uint64 words: the dot is deleted by
# moving the bytes below it up one, the bytes below the first digit become
# "0", and each word's 8 digits become one integer by SWAR.  Its value w *
# 10**-k (w < 10**19, k <= 23) is rounded by Eisel-Lemire (Lemire, "Number
# parsing at a gigabyte per second", Softw. Pract. Exp. 2021): w, shifted up
# to its top bit, times the top 64 bits of 10**-k's truncated mantissa gives
# the double's 54 leading bits in its high word, unless the truncation could
# carry into it (its lowest 9 bits are ones and the low word is within w of
# overflowing) or the product sits exactly halfway between two doubles.  Those
# fields are left to float(), as are the rest of float()'s grammar (exponents,
# "_", "+", "inf", "nan", spaces) and 20 or more significant digits.
_CSV_BLOCK = 1 << 18
_PAD = 24  # bytes before a block, so that every field has 24 bytes that end it
_ZEROS = np.uint64(0x3030303030303030)
# the top k bytes of a 24-byte window, as its 3 little-endian uint64 words (lowest first), k = 0..24
_TOP = np.array([[((1 << 8 * k) - 1) << 8 * (24 - k) >> 64 * i & (2**64 - 1) for i in range(3)] for k in range(25)],
                dtype=np.uint64)
# 10**-k = m * 2**-(127 + k + bitlen(5**k)), 2**127 <= m < 2**128, for k = 0..23: the top 64 bits of floor(m)
_TEN = np.array([((1 << 127 + (5**k).bit_length()) // 5**k if k else 1 << 127) >> 64 for k in range(24)],
                dtype=np.uint64)


def _fast_fields(block):
    """Each field's float() value in a block after _PAD bytes; None off the fast path or if one fails or is inf/nan."""
    u = np.uint64
    b = np.frombuffer(block, np.uint8)
    t = b[_PAD:]
    d = np.flatnonzero((t == 44) | (t == 10))  # where each field ends
    cr = t[d - 1] == 13
    # every third delimiter is a "\n", and the control bytes are those "\n" and a "\r" before each of them at most
    if (d.size % 3 or t.max() > 126 or not (t[d[2::3]] == 10).all()
            or np.count_nonzero(t < 32) != d.size // 3 + np.count_nonzero(cr[2::3])):
        return None
    e = d - cr
    s = np.empty_like(d)
    s[0], s[1:] = 0, d[:-1] + 1
    neg = t[s] == 45
    n = e - s - neg  # bytes after the sign
    dots = np.flatnonzero(t == 46)
    # kept: a slice, not a searchsorted, when every field has its one dot, as the writer's do; reads 5-10 % faster
    own = dots.size == d.size and (dots < e).all() and (dots[1:] > d[:-1]).all()  # one dot in every field
    at = slice(None) if own else np.searchsorted(d, dots)
    j = np.zeros_like(d)  # the dot's place from the field's end, 0 without one
    j[at] = e[at] - dots
    k = np.maximum(j - 1, 0)  # digits after the dot
    digits = n - (j > 0)
    x = np.lib.stride_tricks.sliding_window_view(b, 24)[e].view("<u8")
    up = x << u(8)
    up.reshape(-1)[1:] |= x.reshape(-1)[:-1] >> u(56)  # byte 0 comes from the previous window but is never kept
    y = up ^ ((x ^ up) & _TOP.take(np.where(j > 0, k, 24), axis=0, mode="clip"))
    y = ((y ^ _ZEROS) & _TOP.take(digits, axis=0, mode="clip")) ^ _ZEROS
    f0 = u(0xF0F0F0F0F0F0F0F0)
    bad = ((y & f0) | ((y + u(0x0606060606060606)) & f0) >> u(4)) ^ u(0x3333333333333333)  # 0 on 8 digits
    y -= _ZEROS
    y = y * u(10) + (y >> u(8))
    m = u(0x000000FF000000FF)
    y = ((y & m) * u(100 + (1000000 << 32)) + ((y >> u(16)) & m) * u(1 + (10000 << 32))) >> u(32)
    w = y[:, 0] * u(10**16) + y[:, 1] * u(10**8) + y[:, 2]
    fast = ((bad[:, 0] | bad[:, 1] | bad[:, 2]) == 0) & (n <= 24) & (digits > 0) & (y[:, 0] < 1000)
    width = np.frexp(w.astype(np.float64))[1].astype(np.uint64)
    width -= (w >> (width - u(1))) == 0  # w's bit length: float(w) may round up to a power of two
    man = w << (u(64) - width)
    hi, lo = _mul128(man, _TEN.take(k, mode="clip"))
    top = hi >> u(63)
    mant = hi >> (top + u(9))
    low9 = hi & u(0x1FF)
    fast &= ~((low9 == 0x1FF) & (lo + man < man)) & ~((lo == 0) & (low9 == 0) & (mant & u(3) == 1))
    # the biased exponent less one, which the rounded mantissa's 2**52 bit (or a carry to 2**53) adds back
    exp2 = ((-217706 * k) >> 16) + 1021 + width.astype(np.intp) + top.astype(np.intp)
    bits = (exp2.astype(np.uint64) << u(52)) + ((mant + (mant & u(1))) >> u(1))
    bits[w == 0] = 0
    bits |= neg.astype(np.uint64) << u(63)
    vals = bits.view(np.float64)
    left = np.flatnonzero(~fast)
    try:
        for i, a, z in zip(left.tolist(), s[left].tolist(), e[left].tolist()):
            vals[i] = float(block[_PAD + a:_PAD + z])
    except ValueError:
        return None
    return vals if np.isfinite(vals).all() else None


def read_vectors_csv(path):
    """Read an x,y,z CSV back into an (N, 3) float array of finite values.

    Every field gets the bits ``float()`` gives it; blank lines and an x,y,z
    header on the first line are skipped.  Blocks of plain ASCII rows take a
    vectorised parser (see _CSV_BLOCK).  Any other block, a row of other
    than 3 fields, a field ``float()`` rejects or a non-finite value sends
    the whole file through one line walk, ``_walk_lines``, which gives the
    values or names the first malformed line (or, if there is none, the
    first non-finite one) and its byte offset.
    """
    with open(path, "rb") as f:
        raw = f.read()
    first = raw[:raw.find(b"\n") + 1 or len(raw)]
    head = first.decode("utf-8", errors="replace")
    # a line separator ahead of x,y,z makes it the second line: only spaces and tabs may come first
    lo = len(first) if _is_header(head) and not head.lstrip(" \t")[:1].isspace() else 0
    out = np.empty(raw.count(b",") // 2 * 3)
    n = 0
    while lo < len(raw):
        hi = raw.find(b"\n", lo + _CSV_BLOCK) + 1 or len(raw)
        block = raw[lo:hi]
        end = b"" if block.endswith(b"\n") else b"\n"  # a line end after the last line changes no line
        vals = _fast_fields(b"0" * _PAD + block + end)
        if vals is None:
            return np.array(_walk_lines(raw, path), dtype=np.float64).reshape(-1, 3)
        out[n:n + vals.size] = vals
        n += vals.size
        lo = hi
    return out[:n].reshape(-1, 3)


def _index_rows(idx, tail):
    """The ``{index}{tail}`` lines of nonnegative integers as bytes, in 4-digit cells of _QUADS."""
    idx = np.asarray(idx, dtype=np.int64)
    quads = (len(str(int(idx.max()))) + 3) // 4 if idx.size else 1
    tail = np.frombuffer(tail.ljust(-(-len(tail) // 4) * 4, b"\0"), dtype=np.uint32)
    cells = np.empty((idx.size, quads + tail.size), dtype=np.uint32)
    cells[:, quads:] = tail
    _quad_cells(idx, cells[:, :quads])
    cells[idx == 0, quads - 1] = ord("0")  # the leading form of 0 is all NULs
    return cells.tobytes().translate(None, b"\0")


def write_selection_csv(selection, path):
    with open(path, "wb") as f:
        f.write(b"index,role\r\n")
        f.write(_index_rows(selection.importance, b",importance\r\n"))
        f.write(_index_rows(selection.coverage, b",coverage\r\n"))


def write_epoch_csv(stats, path):
    """One row per EpochStats: its epoch, the mean, median and RMS error in degrees and the nll."""
    with open(path, "w", newline="") as f:
        f.write("epoch,mean_deg,median_deg,rmse_deg,nll\r\n")
        f.write("".join([f"{st.epoch},{st.report.mean_deg!r},{st.report.median_deg!r},{st.report.rmse_deg!r},"
                         f"{st.nll!r}\r\n" for st in stats]))
