"""Weighted-particle phase density and its self-consistent step field.

An ensemble carries phase points z = (x, v, omega, eta) with nonnegative
masses w.  The spatial charge density is the x-marginal with a factor 2
(each molecule holds two atoms), so a particle of mass w contributes a
point charge 2w at its center.  The field is the half-difference of the
charge to the right and to the left,

    F(x) = (mass right of x - mass left of x) / 2,

a nonincreasing step function bounded by half the total charge.  Charge
sitting exactly at the query point is split half-and-half between the two
sides, which makes the field odd for symmetric data and removes any order
dependence among coincident particles.

The build is O(N log N): a stable sort, one ascending prefix sum of the
charges, then a merge of each run of equal positions (``==``, so -0.0 and
0.0 are one position).  The snapshot keeps only the U distinct positions
and, for each, the field strictly left of it and the field at it, so a
query needs only the rank of its point among the positions, plus one
equality test, and then one gather.  A query finds its rank by binary
search (O(log U)), or, on an ``indexed`` snapshot, from a table of 4U
buckets: a query in a bucket that holds no position reads its exact rank
there, and only the others are searched.  A push builds that table once
for its frozen field (``trajectory.integrate_batch``).  Summation runs in
ascending position order so results are bit-reproducible; the
brute-force O(N) check in the tests enforces the same order and matches
exactly.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyEnsembleError

__all__ = [
    "ParticleState",
    "Ensemble",
    "FieldSnapshot",
    "build_field",
    "field_w1",
    "ConstantField",
    "zero_field",
    "read_table",
    "write_table",
]

_BLOCK_ROWS = 4096  # rows per block in write_table; larger tables are spelled in numpy
# A float column of a large table spells each distinct value once when at
# least this share of its cells repeat one: 15 ms against 23-27 ms for the
# bulk benchmark's first ensemble (20,736 rows, 2-core VM, numpy 2.4).
_REUSE_SHARE = 0.5
_WIDTH = 24  # bytes of the longest "%.17g" spelling of a float64
_BUCKETS_PER_KEY = 4  # B / U of an indexed FieldSnapshot
# When an indexed snapshot pays for its table (U = 300 to 20,736 Gaussian
# positions, 2-core VM, numpy 2.4): the table's dozen numpy calls cost
# more than the searches they save below about 250-450 rows a pm call,
# by U.  From 512 rows a search costs 30-190 ns more per row than the
# table, and the build 15-50 ns per position; at U = 20,736 (137 against
# 35 ns) the build pays for itself once the calls read U/4 rows.
_INDEX_MIN_ROWS = 512
_INDEX_ROWS_PER_KEY = 0.25


def write_table(path, header, columns, end: str = "\r\n") -> None:
    r"""Write equal-length columns as CSV, one row per index.

    Byte contract: each value is ``"%.17g"`` (17 significant digits, exact
    round trip; ``nan``, ``inf``, ``-0`` as Python spells them) and a
    text column's cell (``str`` without NUL characters) is written as is;
    fields are joined by ``,`` and every line, header included, ends with
    ``end``.  With the default ``"\r\n"`` the bytes equal ``csv.writer``
    rows of ``f"{c:.17g}"`` strings and unquoted text; with ``"\n"`` they
    equal ``np.savetxt`` with ``delimiter=",", comments="", fmt="%.17g"``.

    Formatting rule: a table of fewer than ``_BLOCK_ROWS`` rows is one
    ``%`` operation.  A larger one is spelled by ``_spell_floats`` and
    written ``_BLOCK_ROWS`` rows at a time; a float column of it in which
    at least ``_REUSE_SHARE`` of the cells repeat a bit pattern spells
    each distinct pattern once (-0.0 and 0.0 apart, each NaN on its own).
    """
    cols = [np.asarray(c) for c in columns]
    cols = [c if c.dtype.kind == "U" else c.astype(float, copy=False) for c in cols]
    n = cols[0].size
    if any(c.shape != (n,) for c in cols):
        raise ValueError("write_table columns must be 1-d and of equal length")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + end)
        if n >= _BLOCK_ROWS:
            _write_blocks(fh, cols, end)
            return
        line = ",".join("%s" if c.dtype.kind == "U" else "%.17g" for c in cols) + end
        block = np.empty((n, len(cols)), dtype=object)
        for j, c in enumerate(cols):
            block[:, j] = c
        fh.write(line * n % tuple(block.ravel().tolist()))


def read_table(path, columns, what: str, header: bool = True) -> np.ndarray:
    """The rows of a text table as an (n, len(columns)) float array, n >= 1.

    Two formats: with ``header``, ``write_table``'s (the header line of
    the ``columns`` names, then ``,``-separated rows, either line end);
    without it, ``np.savetxt``'s default (whitespace-separated rows, no
    header), where only the count of ``columns`` is used.  ``#`` starts a
    comment.  DomainError naming the file when a header is not the
    ``columns`` names (spaces around a name aside), no ``what`` row is
    left (numpy would only warn), a row does not parse (text that is not
    UTF-8 included) or the rows are not ``len(columns)`` wide."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if header and lines and [c.strip() for c in lines[0].split(",")] != list(columns):
            raise DomainError(f"{path}: header {lines[0]!r}, expected {','.join(columns)!r}")
        rows = lines[1 if header else 0:]
        if not any(line.split("#", 1)[0].strip() for line in rows):
            raise DomainError(f"{path}: no {what} rows" + (" after the header" if header else ""))
        data = np.loadtxt(rows, delimiter="," if header else None, dtype=float, ndmin=2)
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    if data.shape[1] != len(columns):
        raise DomainError(f"{path}: rows of {data.shape[1]} columns, expected {len(columns)}")
    return data


def _write_blocks(fh, cols, end: str) -> None:
    """``write_table``'s rows, a block at a time: each cell's bytes at its
    column's places in a row-major uint8 array, NUL-padded, and the NULs
    dropped on the way out."""
    n = cols[0].size
    spells = []  # (width, rows -> (rows, width) uint8) per column
    for c in cols:
        if c.dtype.kind == "U":
            text = np.char.encode(c, "utf-8")
            spells.append((text.itemsize, text.view(np.uint8).reshape(n, -1).__getitem__))
            continue
        bits = c.view(np.uint64)
        s = np.sort(bits)
        if np.count_nonzero(s[1:] == s[:-1]) >= _REUSE_SHARE * n:
            u, index = np.unique(bits, return_inverse=True)
            table = _spell_floats(u.view(float))
            spells.append((_WIDTH, lambda rows, t=table, i=index: t.take(i[rows], axis=0)))
        else:
            spells.append((_WIDTH, lambda rows, c=c: _spell_floats(c[rows])))
    stops = np.cumsum([w + 1 for w, _ in spells])  # one past each column's separator
    buf = np.empty((_BLOCK_ROWS, stops[-1] - 1 + len(end)), dtype=np.uint8)
    buf[:, stops[:-1] - 1] = ord(",")
    buf[:, stops[-1] - 1:] = np.frombuffer(end.encode(), dtype=np.uint8)
    for i in range(0, n, _BLOCK_ROWS):
        rows = slice(i, i + _BLOCK_ROWS)
        nb = min(_BLOCK_ROWS, n - i)
        for (w, spell), stop in zip(spells, stops):
            buf[:nb, stop - 1 - w:stop - 1] = spell(rows)
        fh.write(buf[:nb].tobytes().translate(None, b"\0").decode())


@functools.cache
def _digit_tables():
    """``chars[:, c]``, the four ASCII digits of c < 10**4 (trailing zeros
    NUL at ``c + 10**4``), and ``pow5[s]`` = 5**s < 2**63.  Built on first
    use, so runs that write no large table never build them."""
    c = np.arange(10_000)
    place = 10 ** np.arange(3, -1, -1)[:, None]
    chars = (c // place % 10 + 48).astype(np.uint8)
    stripped = chars * (c % (10 * place) != 0).astype(np.uint8)
    return np.concatenate([chars, stripped], axis=1), 5 ** np.arange(28, dtype=np.uint64)


def _scaled(m, e2, E, pow5):
    """``(q, d, valid)``: floor and round-half-even of m * 2**e2 * 10**(16 - E)
    (m < 2**53), exact where ``valid``: m * 5**s as a 128-bit pair of
    32-bit limb products, shifted right by k = -(e2 + s) in 1..63."""
    s = 16 - E
    k = -(e2 + s)
    valid = (s >= 0) & (s <= 27) & (k >= 1) & (k <= 63)
    p = pow5.take(s, mode="clip")
    k = k.astype(np.uint64)
    m0, m1, p0, p1 = m & 0xFFFFFFFF, m >> 32, p & 0xFFFFFFFF, p >> 32
    mid = m0 * p1 + m1 * p0  # < 2**63 + 2**53
    shifted = mid << 32
    low = m0 * p0 + shifted
    high = m1 * p1 + (mid >> 32) + (low < shifted)  # with the carry out of low
    q = (high << (64 - k)) | (low >> k)
    rem, half = low & ((1 << k) - 1), 1 << (k - 1)
    return q, q + ((rem > half) | ((rem == half) & ((q & 1) == 1))), valid


def _percent_cells(v):
    """``"%.17g" % x`` for each float in v, laid out as ``_spell_floats``'s."""
    return np.array([b"%.17g" % x for x in v.tolist()],
                    dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)


def _spell_floats(x):
    """``"%.17g" % x`` for each float64 in x, as an (n, ``_WIDTH``) uint8
    array: row i holds cell i's bytes, NUL where it has none.

    Exact for doubles with 1e-11 < |x| < 1e17: E = floor(log10|x|) is the
    E whose floor quotient q (``_scaled``) lies in [10**16, 10**17); log10
    can round up onto the next integer, which one step down corrects.  The
    17 digits of d come from a table of four digits (trailing zeros NUL)
    and are laid out as ``%g`` does, fixed for -4 <= E <= 16 and
    ``d.ddde-XX`` below, one slice of the cells sorted by E per layout.
    Every other cell goes to ``_percent_cells``, as does one whose q is
    still out of range or whose d rounds up to 10**17 (none in range).
    """
    chars, pow5 = _digit_tables()
    n = x.size
    ax = np.abs(x)
    ok = (ax > 1e-11) & (ax < 1e17)
    bits = np.where(ok, ax, 1.0).view(np.uint64)
    m = (bits & ((1 << 52) - 1)) | (1 << 52)
    e2 = (bits >> 52).astype(np.int64) - 1075
    E = np.floor(np.log10(bits.view(float))).astype(np.int64)
    q, d, valid = _scaled(m, e2, E, pow5)
    i = np.flatnonzero(q < 10**16)  # log10 rounded up to the next integer
    E[i] -= 1
    q[i], d[i], valid[i] = _scaled(m[i], e2[i], E[i], pow5)
    ok &= valid & (q >= 10**16) & (d < 10**17)
    key = np.where(ok, E + 11, 28).astype(np.int8)  # E in -11..16, then the rest
    order = np.argsort(key, kind="stable")
    start = np.searchsorted(key[order], np.arange(30, dtype=np.int8))
    d = d[order]
    top = d // 10**16
    hi, lo = np.divmod((d - top * 10**16).astype(np.int64), 10**8)
    quads = (hi // 10**4, hi % 10**4, lo // 10**4, lo % 10**4)
    dig = np.empty((17, n), dtype=np.uint8)  # (digit place, cell)
    dig[0] = top + 48
    tail = np.ones(n, dtype=bool)  # every later quad is zero
    for j in (3, 2, 1, 0):
        dig[1 + 4 * j:5 + 4 * j] = chars.take(quads[j] + 10_000 * tail, axis=1)
        tail &= quads[j] == 0
    out = np.zeros((_WIDTH, n), dtype=np.uint8)  # (byte place, cell)
    out[0] = np.signbit(x[order]) * 45  # "-"
    a, b = start[0], start[7]  # E <= -5: d.ddd, then e-XX
    out[1, a:b] = dig[0, a:b]
    out[2, a:b] = (dig[1, a:b] != 0) * 46  # "." before a kept digit
    out[3:19, a:b] = dig[1:, a:b]
    for e in range(-11, 17):
        a, b = start[e + 11], start[e + 12]
        if a < b and e <= -5:
            out[19:23, a:b] = np.frombuffer(b"e-%02d" % -e, dtype=np.uint8)[:, None]
        elif a < b and e < 0:  # 0.000ddd
            out[1:2 - e, a:b] = np.frombuffer(b"0." + b"0" * (-e - 1), dtype=np.uint8)[:, None]
            out[2 - e:19 - e, a:b] = dig[:, a:b]
        elif a < b:  # ddd.ddd, integer places keeping their zeros
            np.maximum(dig[:e + 1, a:b], 48, out=out[1:e + 2, a:b])
            out[e + 2, a:b] = (dig[e + 1, a:b] != 0) * 46 if e < 16 else 0
            out[e + 3:19, a:b] = dig[e + 1:, a:b]
    spelled = np.ascontiguousarray(out.T)
    spelled[start[28]:] = _percent_cells(x[order[start[28]:]])
    inv = np.empty(n, dtype=np.intp)
    inv[order] = np.arange(n)
    return spelled.take(inv, axis=0)


@dataclass(frozen=True)
class ParticleState:
    """One phase-space point."""

    x: float
    v: float
    omega: float
    eta: float


class Ensemble:
    """Struct-of-arrays particle set representing the phase density.

    Masses never change once sampled; transport moves the phase
    coordinates only.  ``f_values`` optionally carries the density value
    each particle was sampled at (used for the transported-max diagnostic).
    """

    __slots__ = ("x", "v", "omega", "eta", "w", "f_values", "time")

    def __init__(self, x, v, omega, eta, w, f_values=None, time: float = 0.0):
        self.x = np.asarray(x, dtype=float)
        self.v = np.asarray(v, dtype=float)
        self.omega = np.asarray(omega, dtype=float)
        self.eta = np.asarray(eta, dtype=float)
        self.w = np.asarray(w, dtype=float)
        n = self.x.size
        for arr in (self.v, self.omega, self.eta, self.w):
            if arr.shape != (n,):
                raise DomainError("ensemble arrays must be equal-length 1d")
        if not np.all(self.w >= 0.0):  # also rejects NaN
            raise DomainError("particle masses must be nonnegative")
        self.f_values = None if f_values is None else np.asarray(f_values, dtype=float)
        self.time = float(time)

    def __len__(self) -> int:
        return self.x.size

    def with_coords(self, x, v, omega, eta, time: float) -> "Ensemble":
        """New ensemble with moved coordinates; masses and values shared."""
        return Ensemble(x, v, omega, eta, self.w, f_values=self.f_values, time=time)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.w))

    def support_box(self) -> tuple[float, float, float, float, float, float, float, float]:
        """(x_lo, x_hi, v_lo, v_hi, omega_lo, omega_hi, eta_lo, eta_hi)."""
        if len(self) == 0:
            raise EmptyEnsembleError("empty ensemble has no support box")
        return (float(self.x.min()), float(self.x.max()),
                float(self.v.min()), float(self.v.max()),
                float(self.omega.min()), float(self.omega.max()),
                float(self.eta.min()), float(self.eta.max()))

    def dump_csv(self, path) -> None:
        write_table(path, ["x", "v", "omega", "eta", "w"],
                    [self.x, self.v, self.omega, self.eta, self.w])

    def dump_field_csv(self, path) -> None:
        """The charges behind this ensemble's field: positions in stable
        sorted order and the running charge up to and including each."""
        positions, prefix = _sorted_prefix(self.x, 2.0 * self.w)
        write_table(path, ["x_sorted", "cum_mass"], [positions, prefix[1:]])

    @classmethod
    def load_csv(cls, path) -> "Ensemble":
        """The particles of a CSV file: the header x,v,omega,eta,w, then
        its rows (``read_table``'s first format)."""
        data = read_table(path, ["x", "v", "omega", "eta", "w"], "particle")
        return cls(data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4])


def _sorted_prefix(positions, charges) -> tuple[np.ndarray, np.ndarray]:
    """Positions in stable sorted order and the ascending prefix sum of
    their charges: prefix[k] is the charge strictly left of sorted
    position k (ties in input order), prefix[-1] the total."""
    order = np.argsort(positions, kind="stable")
    charges = np.asarray(charges, dtype=float)[order]
    return (np.asarray(positions, dtype=float)[order],
            np.concatenate([[0.0], np.cumsum(charges)]))


class FieldSnapshot:
    """The frozen field of one ensemble.  Immutable after construction;
    safe to share across threads.

    Coincident charges are merged at build time.  For the U distinct
    sorted positions u_j, with P_j the charge strictly left of u_j and
    P_U the total, the snapshot stores U + 1 rows (3(U + 1) floats in
    place of one position and one prefix per particle):

    - ``_keys``: u_0 < ... < u_{U-1}, then a +inf sentinel;
    - ``_values[:, 0]``: the field strictly between u_{j-1} and u_j,
      total/2 - P_j (row U: right of every charge);
    - ``_values[:, 1]``: the field at u_j, total/2 - P_j - (P_{j+1} - P_j)/2
      (row U: equal to its between value, so x = +inf reads -total/2).

    The tie-splitting rule is unchanged: charge at the query point counts
    half to each side.  These are the exact floating-point expressions of
    a left/right pair of binary searches over the unmerged prefix sum, so
    every value is bitwise equal to it.  Positions must not be NaN.

    ``_index`` is None, or, on a snapshot returned by ``indexed``, the
    bucket map's parameters and its table, which array queries read
    before they search.
    """

    __slots__ = ("_keys", "_values", "total", "_index")

    def __init__(self, positions: np.ndarray, charges: np.ndarray):
        pos, prefix = _sorted_prefix(positions, charges)
        if pos.size and np.isnan(pos[-1]):  # NaN sorts last
            raise DomainError("field charge positions must not be NaN")
        first = np.empty(pos.size, dtype=bool)
        first[:1] = True
        np.not_equal(pos[1:], pos[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        p = prefix[np.append(starts, pos.size)]  # P_0 .. P_U
        self.total = float(prefix[-1])
        self._keys = np.append(pos[starts], math.inf)
        self._values = np.empty((p.size, 2))
        # Between positions the charge at x is 0 and "- 0.5 * 0.0" is exact.
        self._values[:, 0] = 0.5 * self.total - p
        self._values[:-1, 1] = self._values[:-1, 0] - 0.5 * np.diff(p)
        self._values[-1, 1] = self._values[-1, 0]
        self._index = None

    def at(self, x):
        """Field value(s) at x: half of right mass minus left mass, charge
        at x split evenly between the sides.  Half the sum of ``pm(x, 0)``,
        which is 2 F(x), so exactly F(x)."""
        return 0.5 * self.pm(x, 0.0)[0]

    def pm(self, x, omega):
        """(F(x+omega)+F(x-omega), F(x+omega)-F(x-omega)).

        Both sides are looked up as one stacked query q, so each call pays
        numpy's per-call overhead once, and each query reads row j's
        between (2j) or at (2j + 1) value.  0-d input, or a snapshot
        without an index, takes one binary search and one equality test
        (``_search``).  An array query on an ``indexed`` snapshot reads its
        row from the bucket table and searches only the queries whose
        bucket holds a position (``_lookup``); both read the same values,
        bit for bit (see ``indexed``)."""
        x = np.asarray(x, dtype=float)
        q = np.array((x + omega, x - omega))
        if q.ndim == 1 or self._index is None:
            idx = self._search(q)
        else:
            idx = self._lookup(q)
        f = self._values.ravel().take(idx)
        if q.ndim == 1:
            r, l = f.tolist()
            return r + l, r - l
        return f[0] + f[1], f[0] - f[1]

    def _search(self, q):
        """Row index 2j + hit of each query: j = #{u_i < q}, by binary
        search, and hit = (u_j == q).  Index U (past every position, or
        NaN) lands on the sentinel row."""
        idx = np.searchsorted(self._keys[:-1], q, side="left")
        hit = self._keys.take(idx) == q
        idx *= 2
        idx += hit
        return idx

    def indexed(self, rows: int, calls: int) -> "FieldSnapshot":
        """The snapshot to answer ``calls`` array ``pm`` calls of ``rows``
        rows each: this field with a bucket table, sharing ``_keys`` and
        ``_values``, or this snapshot itself when the table would not pay
        for its build or cannot be built.

        [u_0, u_{U-1}] is cut into B = 4U buckets by one monotone map,

            g(y) = trunc(clip((clip(y, u_0 - span, u_{U-1} + span) - u_0) * s,
                              -1, B + 2) + 1),    s = B / span,

        whose inner clip sends NaN to the top (``np.fmin``).  The table
        has B + 4 entries: -1 for a bucket that holds a position, and
        2 #{u_i : g(u_i) < b} for an empty bucket b.  Every operation of g
        is correctly rounded and monotone, and positions and queries go
        through the same operations.  So a query in an empty bucket lies
        strictly above every position of a lower bucket and strictly
        below every position of a higher one: the entry is its exact
        ``_search`` row, 2j with no hit.  NaN and +inf read the top
        bucket, which holds no position: row 2U, whose values are the
        sentinel's (2U + 1 for +inf in ``_search`` holds the same bits).
        The clip comes first, so no query overflows.

        No table is built for U < 2, or when the span, the clip bounds or
        s are not finite (positions at +-inf, or a span near the float
        range).  Nor is one built for fewer than ``_INDEX_MIN_ROWS`` rows
        a call, or fewer than ``_INDEX_ROWS_PER_KEY * U`` rows in all
        calls (see there).  The table is 8(4U + 4) bytes, so callers hold
        it for one push (``trajectory.integrate_batch``), not for a
        snapshot's life.
        """
        u = self._keys[:-1]
        if u.size < 2 or rows < _INDEX_MIN_ROWS or rows * calls < _INDEX_ROWS_PER_KEY * u.size:
            return self
        lo, hi = float(u[0]), float(u[-1])
        span = hi - lo
        top = _BUCKETS_PER_KEY * u.size  # B
        s, clamp_lo, clamp_hi = top / span, lo - span, hi + span
        # A clipped query minus u_0 lies between these two differences, so
        # with them and s finite, no term of the map overflows.
        if not all(map(math.isfinite, (s, clamp_lo - lo, clamp_hi - lo))):
            return self
        params = (lo, s, clamp_lo, clamp_hi, top + 2.0)
        g = _buckets(u, params)  # nondecreasing, in 1 .. B + 1
        table = np.zeros(top + 4, dtype=np.intp)
        np.cumsum(np.bincount(g, minlength=top + 3), out=table[1:])
        table *= 2
        table[g] = -1
        snap = copy.copy(self)
        snap._index = (params, table)
        return snap

    def _lookup(self, q):
        """``_search``'s rows from the bucket table; the queries whose
        bucket holds a position (entry -1) are searched."""
        params, table = self._index
        idx = table.take(_buckets(q, params))
        miss = np.flatnonzero(idx < 0)
        if miss.size:
            idx.ravel()[miss] = self._search(q.ravel().take(miss))
        return idx

    def norms(self) -> tuple[float, float]:
        """Exact suprema (sup|F|, sup|F+-|) = (total/2, total)."""
        return 0.5 * self.total, self.total

    def same_field(self, other) -> bool:
        """True when ``other`` is a snapshot with equal total, keys and
        values (``==``), so every query reads the same bits: keys enter
        queries only through comparisons, and the values, built from
        sums of nonnegative charges, are never -0.0."""
        return (isinstance(other, FieldSnapshot) and self.total == other.total
                and np.array_equal(self._keys, other._keys)
                and np.array_equal(self._values, other._values))


def _buckets(y, params):
    """The bucket g(y) of ``FieldSnapshot.indexed`` of each float in y."""
    lo, s, clamp_lo, clamp_hi, top = params
    t = np.fmin(y, clamp_hi)  # NaN goes to the top
    np.fmax(t, clamp_lo, out=t)
    t -= lo
    t *= s
    np.fmin(t, top, out=t)
    np.fmax(t, -1.0, out=t)
    t += 1.0
    return t.astype(np.intp)


def field_w1(a: FieldSnapshot, b: FieldSnapshot) -> float:
    """Integral of |F_a - F_b| over the span of both snapshots' charges.

    For two step fields of equal total charge this is the Wasserstein-1
    distance between the charge measures.  Outside the span both fields
    are +-total/2, so only a rounding difference of the totals remains
    there, and it is left out.  No quadrature: on the merged sorted key
    grid both fields are constant between consecutive points (each
    field's between-value of its first key right of the left point), and
    the terms |dF| * dx are summed in ascending position order.
    """
    grid = np.union1d(a._keys[:-1], b._keys[:-1])
    if grid.size < 2:
        return 0.0
    left = grid[:-1]
    fa = a._values[np.searchsorted(a._keys, left, side="right"), 0]
    fb = b._values[np.searchsorted(b._keys, left, side="right"), 0]
    return float(np.cumsum(np.abs(fa - fb) * np.diff(grid))[-1])


def build_field(ensemble: Ensemble) -> FieldSnapshot:
    """Snapshot of the ensemble's self-consistent field.

    O(N log N): stable sort by position, one ascending prefix sum and a
    merge of coincident positions.
    Each particle contributes charge 2w at its center.
    """
    if len(ensemble) == 0:
        raise EmptyEnsembleError("cannot build a field from an empty ensemble")
    return FieldSnapshot(ensemble.x, 2.0 * ensemble.w)


class ConstantField:
    """Uniform prescribed fields (F+, F-) = (f_plus, f_minus) everywhere; F-
    drives the bond.  A stand-in snapshot for studies of trajectories under
    given fields."""

    __slots__ = ("fp", "fm")

    def __init__(self, f_plus: float = 0.0, f_minus: float = 0.0):
        self.fp = float(f_plus)
        self.fm = float(f_minus)

    def pm(self, x, omega):
        if np.ndim(x) == 0:
            return self.fp, self.fm
        shape = np.broadcast_shapes(np.shape(x), np.shape(omega))
        return np.full(shape, self.fp), np.full(shape, self.fm)

    def norms(self) -> tuple[float, float]:
        m = max(abs(self.fp), abs(self.fm))
        return 0.5 * m, m


def zero_field() -> FieldSnapshot:
    """The field of no charge, for the autonomous (field-free) dynamics."""
    return FieldSnapshot(np.empty(0), np.empty(0))
