"""Points, function tables, the exact Walsh-Hadamard transform, l_p
distances, counting query oracles and the table file format on the
Boolean cube.

Functions live on {0,1}^n with values in [0,1] and are stored as dense
tables of length 2^n.  Coordinates are 1-indexed in every public
interface; internally a point is an integer mask whose bit (i-1) holds
coordinate i.  The Fourier character convention is fixed once here:

    chi_T(x) = (-1)^{sum of x_i over i in T}

so that hat_f(T) = E_x[f(x) * chi_T(x)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAX_DIMENSION = 24  # dense tables only; larger cubes are out of scope

# Tolerance for snapping float noise at the [0,1] boundary.  Values
# further outside the range than this are construction errors.
_BOUNDARY_SNAP = 1e-9


def check_dimension(n: int) -> None:
    """Reject a cube dimension outside [1..MAX_DIMENSION]."""
    if not 0 < n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [1..{MAX_DIMENSION}]")


def check_p(p: float) -> None:
    """Reject an lp exponent that is not a finite number >= 1 (NaN too):
    every lp distance and bound here holds only for those."""
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be >= 1 and finite, got {p}")


class BudgetError(ValueError):
    """A size over its limit, refused before it is allocated (exit 4): the
    tester's q or num_parts, an estimate's m, the core grid or the
    coordinate sets of `closest_junta`."""


def mask_of(coords: Iterable[int], n: int) -> int:
    """Integer mask for a set of 1-indexed coordinates."""
    m = 0
    for i in coords:
        if not 1 <= i <= n:
            raise ValueError(f"coordinate {i} outside [1..{n}]")
        m |= 1 << (i - 1)
    return m


def coords_of(mask: int) -> frozenset[int]:
    """1-indexed coordinate set of an integer mask."""
    out = set()
    i = 1
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)


@dataclass(frozen=True)
class CubePoint:
    """A point of {0,1}^n.

    `mask` holds coordinate i in bit (i-1); `point[i]` reads a single
    coordinate (1-indexed).
    """

    n: int
    mask: int

    def __post_init__(self):
        check_dimension(self.n)
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError("mask has bits outside the cube")

    @classmethod
    def from_string(cls, s: str) -> "CubePoint":
        """Parse a bitstring with coordinate 1 leftmost."""
        mask = 0
        for i, c in enumerate(s):
            if c not in "01":
                raise ValueError("bits must be 0 or 1")
            mask |= int(c) << i
        return cls(len(s), mask)

    def __getitem__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"coordinate {i} outside [1..{self.n}]")
        return (self.mask >> (i - 1)) & 1

    def to_string(self) -> str:
        return "".join(str(self[i]) for i in range(1, self.n + 1))

    def __repr__(self) -> str:
        return f"CubePoint({self.to_string()!r})"


class FunctionTable:
    """Dense table of a function {0,1}^n -> [0,1].

    Values are validated on construction: anything outside [0,1] by more
    than a float-noise margin is an error, values within the margin are
    snapped to the boundary.  Instances are immutable.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values):
        check_dimension(n)
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} values for n={n}, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("table values must be finite")
        if arr.min() < -_BOUNDARY_SNAP or arr.max() > 1.0 + _BOUNDARY_SNAP:
            bad = arr[(arr < -_BOUNDARY_SNAP) | (arr > 1.0 + _BOUNDARY_SNAP)][0]
            raise ValueError(f"table value {bad} outside [0,1]")
        arr = np.clip(arr, 0.0, 1.0)
        arr.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("FunctionTable is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FunctionTable)
            and self.n == other.n
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.n, self.values.tobytes()))

    def __repr__(self) -> str:
        return f"FunctionTable(n={self.n})"


def _fwht_inplace(a: np.ndarray) -> None:
    """Unnormalized fast Walsh-Hadamard butterfly, in place."""
    size = a.shape[0]
    h = 1
    while h < size:
        v = a.reshape(-1, 2 * h)
        x = v[:, :h].copy()
        y = v[:, h:].copy()
        v[:, :h] = x + y
        v[:, h:] = x - y
        h *= 2


def walsh_hadamard(f: FunctionTable) -> np.ndarray:
    """Exact transform, O(n 2^n): a read-only float64 array whose entry at
    the mask of T is hat_f(T) = E_x[f(x) * chi_T(x)], transformed in one
    copy of the table.

    Raises if the result fails Parseval against the input table, which
    would indicate numerical breakage rather than a user error.
    """
    a = f.values.copy()
    _fwht_inplace(a)
    a /= a.shape[0]
    energy_time = float(np.mean(f.values ** 2))
    energy_freq = float(np.sum(a ** 2))
    if abs(energy_time - energy_freq) > 1e-9:
        raise ArithmeticError("Parseval check failed in walsh_hadamard")
    a.flags.writeable = False
    return a


def lp_distance(f: FunctionTable, g: FunctionTable, p: float) -> float:
    """Normalized distance (E_x |f-g|^p)^(1/p), exact over the table."""
    check_p(p)
    if f.n != g.n:
        raise ValueError(f"dimensions differ: {f.n} vs {g.n}")
    diff = np.abs(f.values - g.values)
    return float(np.mean(diff ** p) ** (1.0 / p))


class QueryOracle:
    """Black-box access to a function with a query counter.

    Every evaluated point increments the counter by exactly one; batch
    queries increment by the batch size.  Each tester trial owns its
    oracle, so the counter needs no lock.
    """

    def __init__(self, n: int, evaluate_batch: Callable[[np.ndarray], np.ndarray]):
        self.n = n
        self._evaluate_batch = evaluate_batch
        self._count = 0

    @property
    def query_count(self) -> int:
        return self._count

    def query_masks(self, masks: np.ndarray) -> np.ndarray:
        """Evaluate a batch of integer-mask points; counts len(masks) queries."""
        masks = np.asarray(masks, dtype=np.int64)
        self._count += int(masks.size)
        return self._evaluate_batch(masks)


def uniform_masks(rng: np.random.Generator, n: int, shape) -> np.ndarray:
    """Uniform n-bit masks, 1 <= n <= 62, as an int64 array of `shape`:
    mask i is the top n bits of the i-th 64-bit word of rng's PCG64 bit
    generator (`random_raw`), so consecutive draws give what one draw of
    them all gives.  A 32-bit half that an earlier draw left buffered is
    neither used nor changed.  A generator over any other bit generator
    raises ValueError: MT19937's raw words, for one, hold only 32 bits."""
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise ValueError(f"uniform_masks reads PCG64 words, not {type(bitgen).__name__}")
    if not 1 <= n <= 62:
        raise ValueError(f"mask width must be in [1..62], got {n}")
    words = bitgen.random_raw(shape)
    words >>= np.uint64(64 - n)
    return words.view(np.int64)


def make_counting_oracle(f: FunctionTable) -> QueryOracle:
    """Oracle answering table lookups, counter starting at zero."""
    values = f.values

    def evaluate(masks: np.ndarray) -> np.ndarray:
        return values[masks]

    return QueryOracle(f.n, evaluate)


# ---------------------------------------------------------------------------
# Table file format: header line "dim n", then one "bitstring value" line per
# point (bitstring coordinate order, index 1 leftmost).  Values are written
# with repr, so they read back exactly; a repeated point is an error.  Blank
# lines and lines starting with "#" (metadata comments) are ignored by the
# parser.  Both sides use one text stream, opened as open(path) and
# open(path, "w") open it (locale encoding, universal newlines).  The writer
# works on _IO_BLOCK lines at a time, and the reader on pieces of
# _READ_BYTES characters, each cut after its last newline, so neither holds
# more than a block, a piece or one line longer than a piece.  The writer
# formats each distinct value of a block once and lays the block's lines
# out in an array of bytes.  An ASCII piece laid out as the writer lays it
# out (each line n bits, one space, the value and a newline) is read from
# its bytes, and when no value in it is longer than 8 bytes, as in a table
# of a junta on a value grid, each distinct value is parsed once; any other
# piece, with comments, blank lines, other whitespace or non-ASCII text, is
# read line by line, with the same table or error.
# ---------------------------------------------------------------------------

_IO_BLOCK = 1 << 12
_READ_BYTES = 1 << 17


def _value_lines(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct value of `values` (by its bits, so -0.0 is not 0.0)
    as its repr and a newline, padded with NUL bytes to one width, and
    the row of that text for each value: repr runs once per value."""
    keys, rows = np.unique(values.view(np.uint64), return_inverse=True)
    text = [f"{v!r}\n" for v in keys.view(np.float64).tolist()]
    width = max(map(len, text))
    padded = np.array(text, dtype=f"S{width}").view(np.uint8).reshape(len(text), width)
    return padded, rows.reshape(-1)


def write_table(f: FunctionTable, path, metadata: Sequence[str] = ()) -> None:
    n = f.n
    # every block starts at a multiple of _IO_BLOCK = 2^12, so its low 12
    # bit columns are those of masks 0, 1, ... and the others are constant
    low = min(n, 12)
    idx = np.arange(min(_IO_BLOCK, 1 << n), dtype=np.int64)
    low_columns = ((idx[:, None] >> np.arange(low)) & 1).astype(np.uint8) + np.uint8(ord("0"))
    with open(path, "w") as fh:
        fh.write("".join(f"# {m}\n" for m in metadata) + f"dim {n}\n")
        for start in range(0, 1 << n, _IO_BLOCK):
            stop = min(start + _IO_BLOCK, 1 << n)
            text, rows = _value_lines(f.values[start:stop])
            lines = np.zeros((stop - start, n + 1 + text.shape[1]), dtype=np.uint8)
            lines[:, :low] = low_columns
            lines[:, low:n] = ((start >> np.arange(low, n)) & 1) + ord("0")
            lines[:, n] = ord(" ")
            np.take(text, rows, axis=0, out=lines[:, n + 1 :])
            # no byte of a line is NUL: dropping the zeros drops the padding
            fh.write(lines[lines != 0].tobytes().decode("ascii"))


def _read_lines(lines: Iterable[str], n: int, values: np.ndarray, seen: np.ndarray) -> None:
    """Store point lines one at a time, stripped, skipping blank and
    comment lines; raise on the first bad one."""
    for ln in map(str.strip, lines):
        if not ln or ln[0] == "#":
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed table line: {ln!r}")
        bits, val = parts
        if len(bits) != n or any(c not in "01" for c in bits):
            raise ValueError(f"bad bitstring {bits!r} for dimension {n}")
        mask = CubePoint.from_string(bits).mask
        if seen[mask]:
            raise ValueError(f"duplicate point {bits}")
        values[mask] = float(val)
        seen[mask] = True


# _LOW_BYTES[i] keeps the low i bytes of a uint64, the first i bytes of a
# little-endian word
_LOW_BYTES = np.array([(1 << (8 * i)) - 1 for i in range(9)], dtype=np.uint64)


def _short_values(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Optional[np.ndarray]:
    """The values buf[starts[i]:ends[i]] read by `float` when each is at
    most 8 bytes, else None.  Each token is keyed by its bytes as one
    little-endian uint64, NUL bytes past its end, and `float` reads each
    distinct key once; `buf` holds no NUL byte, so no two tokens share a
    key.  Longer tokens are left to the caller: with many distinct
    17-digit values, as a random table has, the dedup costs more than
    it saves."""
    lengths = ends - starts
    if lengths.max() > 8:
        return None
    padded = np.concatenate((buf, np.zeros(7, np.uint8)))
    words = np.ndarray(buf.shape, dtype="<u8", buffer=padded, strides=(1,))
    keys, rows = np.unique(words[starts] & _LOW_BYTES[lengths], return_inverse=True)
    tokens = keys.astype("<u8", copy=False).view("S8").tolist()  # NUL bytes stripped
    return np.array([float(t) for t in tokens])[rows.reshape(-1)]


def _read_columns(chunk: bytes, n: int, values: np.ndarray, seen: np.ndarray) -> bool:
    """Store an ASCII piece of newline-ended point lines when every line
    is laid out in fixed columns: n bits, one space, a value, a newline.

    The layout is checked on the bytes, so the bits are read from their
    columns and only the values go through `float`.  Returns False, with
    `values` and `seen` untouched, when the piece is laid out any other
    way or fails any check; the caller then rereads it with `_read_lines`.
    """
    buf = np.frombuffer(chunk, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    count = ends.size
    starts = np.concatenate(([0], ends[:-1] + 1))
    # Each line is n bits, a space and a non-empty value, and the space
    # and the newline are its only bytes <= 0x20: with ASCII bytes, that
    # leaves nothing else split takes for whitespace.
    if (
        np.any(ends - starts < n + 2)
        or np.any(buf[starts + n] != ord(" "))
        or np.count_nonzero(buf <= ord(" ")) != 2 * count
    ):
        return False
    bits = sliding_window_view(buf, n)[starts] - np.uint8(ord("0"))
    if np.any(bits > 1):
        return False
    masks = bits @ (np.int64(1) << np.arange(n, dtype=np.int64))
    ordered = np.sort(masks)
    if np.any(ordered[1:] == ordered[:-1]) or np.any(seen[masks]):
        return False
    try:
        chunk_values = _short_values(buf, starts + n + 1, ends)
        if chunk_values is None:
            chunk_values = np.fromiter(map(float, chunk.split()[1::2]), np.float64, count)
    except ValueError:
        return False
    values[masks] = chunk_values
    seen[masks] = True
    return True


def read_table(path) -> FunctionTable:
    """The table in the file at `path`, which is read as one text stream
    (locale encoding, universal newlines): the header is its first line
    that is neither blank nor a comment, and the rest is read a piece at a
    time.  Gives the table, or the error, that reading the file line by
    line gives; only the position in a UnicodeDecodeError past the first
    8 KiB may differ, since it counts from the text layer's current read."""
    with open(path) as fh:
        header = next((ln for ln in map(str.strip, fh) if ln and ln[0] != "#"), "")
        if not header.startswith("dim "):
            raise ValueError("table file must start with a 'dim n' header")
        try:
            _, size = header.split()
            n = int(size)
        except ValueError as exc:
            raise ValueError("malformed 'dim' header") from exc
        if not 0 < n <= MAX_DIMENSION:
            raise ValueError(f"dimension {n} outside [1..{MAX_DIMENSION}]")
        values = np.zeros(1 << n)
        seen = np.zeros(1 << n, dtype=bool)
        # the lines after the header, in pieces cut after their last newline;
        # `rest` holds the text after the last newline read so far
        rest: list[str] = []
        while text := fh.read(_READ_BYTES):
            cut = text.rfind("\n") + 1
            if cut:
                piece = "".join([*rest, text[:cut]])
                rest = []
                if not (piece.isascii() and _read_columns(piece.encode(), n, values, seen)):
                    _read_lines(piece.split("\n"), n, values, seen)
            rest.append(text[cut:])
        _read_lines(["".join(rest)], n, values, seen)
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise ValueError(f"missing point {CubePoint(n, missing).to_string()}")
    return FunctionTable(n, values)
