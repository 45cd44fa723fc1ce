"""The pluggable NTT-engine layer: the paper's algorithm zoo inside the backends.

The source paper studies *NTT algorithm variants* — radix-2 vs high-radix
butterflies, the two-kernel (four-step) decomposition, Stockham's auto-sort
formulation.  An :class:`NttEngine` runs each as one array kernel of the
NumPy data plane, so the production transform path is the thing the
experiments measure:

* every engine is **bit-for-bit interchangeable** with the scalar oracle
  (:class:`~repro.transforms.cooley_tukey.NegacyclicTransformer`, the one
  transform of :class:`~repro.backends.scalar.ScalarBackend`): forward
  output in the bit-reversed order of Algorithm 1, inverse consuming
  bit-reversed input, every residue fully reduced — NTT-domain data flows
  between engines freely and ``tests/test_kernel_crosscheck.py`` pins them
  all against the oracle;
* an engine transforms a ``(k, m, n)`` ``uint64`` block in place — ``k``
  repetitions of a basis of ``m`` primes in one call, the paper's one
  launch for all ``np x polynomials`` transforms — sweeping the basis's
  stacked :class:`EngineTables` broadcast over ``k``;
* the array path runs one fixed kernel, :data:`ARRAY_ENGINE`
  (``stockham``); the one way to run another is to build the backend with
  it, ``NumpyBackend(engine=spec)``, which is how the figures measure the
  zoo.  Rows the array path cannot hold (primes of 2^62 or more) run the
  oracle's transform whatever the pin.

Each algorithm has one array kernel, parameterised by the basis's
:class:`~repro.backends.wideops.Reduction`.  Kernels sweep tiles of
:data:`TILE_ELEMS` residues with per-thread scratch written through
``out=``, so a stage allocates nothing.  All but the radix-2 baseline use
Harvey's lazy butterflies (J. Symb. Comp. 2014): values stay below ``2p``
or ``4p`` between stages, a butterfly pays one conditional subtraction
``min(x, x - 2p)`` instead of a division, and the output is fully reduced
once.  :class:`Radix2Engine` keeps Algorithm 1's ``%`` as the baseline.
"""

from __future__ import annotations

import abc
import contextlib
import math
import threading
from collections.abc import Callable
from functools import lru_cache

import numpy as np

from ..modarith.modops import inv_mod, mul_mod, pow_mod
from ..modarith.roots import primitive_root_of_unity
from ..transforms.bitrev import bit_reverse_index_array, is_power_of_two, log2_exact
from .wideops import mulmod, reduce_below, reduction_for

__all__ = [
    "ARRAY_ENGINE",
    "TILE_ELEMS",
    "NttEngine",
    "EngineTables",
    "TableRows",
    "available_engines",
    "default_split",
    "get_engine",
    "kernel_buffers",
    "register_engine",
    "scratch",
    "tile_rows",
]

#: The array kernel every transform runs unless the backend was built with
#: another (``NumpyBackend(engine=spec)``): Pease's
#: constant geometry, the fastest array kernel at every tile shape measured
#: (N=4096, 6 and 12 rows, 30- and 60-bit primes, forward and inverse).
ARRAY_ENGINE = "stockham"

#: Residues per kernel tile: whole rows, so one stage's operands and its
#: scratch (a few tile-sized buffers per thread) stay in cache.
TILE_ELEMS = 12 * 4096
#: Constant-geometry stages whose twiddle runs are shorter than this store
#: their twiddles expanded: NumPy streams long contiguous inner loops far
#: faster than it broadcasts short runs.
EXPANDED_RUNS = 16
#: NumPy's ufunc buffer size (elements) inside the kernels.  At the default
#: 8192, a ufunc over rows shorter than the buffer copies them through it
#: to form longer chunks; below the kernels' row lengths it streams the
#: rows in place, more than twice as fast.
KERNEL_BUFSIZE = 128


@contextlib.contextmanager
def kernel_buffers():
    """Run the enclosed kernels with :data:`KERNEL_BUFSIZE` buffers; restore the caller's."""
    previous = np.setbufsize(KERNEL_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(previous)


def default_split(n: int) -> tuple[int, int]:
    """Split ``n`` into two power-of-two factors as evenly as possible."""
    bits = log2_exact(n)
    first = bits // 2
    return 1 << first, 1 << (bits - first)


def tile_rows(k: int, m: int, n: int) -> int:
    """Rows of the first tile of a ``(k, m, n)`` block: the batch of its engine-choice key.

    Tiles hold whole basis repetitions when a basis fits, else part of one.
    """
    fit = max(1, TILE_ELEMS // n)
    return min(k, fit // m) * m if m <= fit else fit


# --------------------------------------------------------------------- tables


def _modular_powers(base: int, count: int, p: int, first: int = 1) -> list[int]:
    powers = [first] * count
    for i in range(1, count):
        powers[i] = mul_mod(powers[i - 1], base, p)
    return powers


def _powers(bases: list[int], primes: list[int], count: int, scales: list[int] | None = None):
    """``scale * base^e mod p`` for ``e < count``: one ``uint64`` row per prime.

    The on-the-fly twiddle factorisation of Section VII
    (:class:`~repro.core.on_the_fly.OnTheFlyConfig`), used here to build the
    resident tables: with ``B`` about ``sqrt(count)``, ``base^e`` is
    ``(base^B)^(e // B) * base^(e % B)``, so Python computes ``B`` low and
    ``count / B`` high powers per prime and one exact outer product
    (:func:`~repro.backends.wideops.mulmod`) forms every entry.  A scale
    (``n^{-1}`` for the inverse post-twist) rides on the low powers.
    """
    low_count = 1 << (max(count - 1, 1).bit_length() + 1) // 2
    high_count = -(-count // low_count)
    scales = scales if scales is not None else [1] * len(primes)
    low = [_modular_powers(b, low_count, p, s) for b, p, s in zip(bases, primes, scales)]
    high = [_modular_powers(pow_mod(b, low_count, p), high_count, p) for b, p in zip(bases, primes)]
    column = np.asarray(primes, dtype=np.uint64).reshape(-1, 1, 1)
    grid = mulmod(
        np.asarray(high, dtype=np.uint64)[:, :, None],
        np.asarray(low, dtype=np.uint64)[:, None, :],
        column,
    )
    return grid.reshape(len(primes), -1)[:, :count]


def _pease_table(omegas: list[int], primes: list[int], length: int):
    """Twiddles of a constant-geometry sweep of ``length``: ``omega^i``, ``i < length/2``.

    Stage ``s`` multiplies pair ``j`` by ``omega^((j >> s) << s)``: runs of
    ``2^s`` equal values.  Stages whose runs are shorter than
    :data:`EXPANDED_RUNS` follow, expanded to ``length/2`` entries each, so
    their products stream contiguously; later stages broadcast a strided
    view of the first block.
    """
    powers = _powers(omegas, primes, length // 2)
    blocks = [powers]
    run = 2
    while run < min(EXPANDED_RUNS, length):
        blocks.append(np.repeat(powers[:, ::run], run, axis=1))
        run *= 2
    return np.concatenate(blocks, axis=1)


def _table(name: tuple, n: int, primes: list[int], roots: list[int]):
    """The named table's rows for ``primes`` (``psi`` per prime in ``roots``)."""
    kind, inverse = name[0], name[1]
    if kind == "n_inv":
        return np.asarray([[inv_mod(n, p)] for p in primes], dtype=np.uint64)
    psis = [inv_mod(psi, p) if inverse else psi for psi, p in zip(roots, primes)]
    if kind == "ct":  # Algorithm 1's table: psi^bitrev(i)
        return _powers(psis, primes, n)[:, bit_reverse_index_array(n)]
    if kind == "twist":
        scales = [inv_mod(n, p) for p in primes] if inverse else None
        return _powers(psis, primes, n, scales)
    omegas = [mul_mod(psi, psi, p) for psi, p in zip(psis, primes)]
    if kind == "pease":
        return _pease_table(omegas, primes, n)
    # ("four_step", inverse, n1, part): the n1 x n2 split's three tables.
    n1, part = name[2], name[3]
    n2 = n // n1
    if part == "inner":
        return _pease_table([pow_mod(w, n2, p) for w, p in zip(omegas, primes)], primes, n1)
    if part == "outer":
        return _pease_table([pow_mod(w, n1, p) for w, p in zip(omegas, primes)], primes, n2)
    # Twist omega^(j2*k1), with k1 in the inner sweep's bit-reversed order;
    # omega has order n, so the exponent is taken mod n.
    exponents = np.arange(n2).reshape(-1, 1) * bit_reverse_index_array(n1) % n
    return _powers(omegas, primes, n)[:, exponents.ravel()]


class EngineTables:
    """Stacked twiddle tables of every prime a backend transforms at one ``n``.

    One instance per ``(n, reduction strategy)``: primes join in the order
    they are first seen (:meth:`index`), each table is built on first use
    as one ``(primes, length)`` ``uint64`` array (by the on-the-fly
    factorisation, :func:`_powers`; bit-identical to the oracle's
    sequential tables) plus its
    :meth:`~repro.backends.wideops.Reduction.companions`, and a new prime
    extends every built table by one row — one copy of each table, which
    :meth:`rows` hands to the kernels as views of a range of primes.  An
    explicit ``psi_2n`` serves a single-prime instance whose root the
    caller chose.
    """

    def __init__(self, n: int, strategy: str, psi_2n: int | None = None) -> None:
        if not is_power_of_two(n):
            raise ValueError("n must be a power of two")
        self.n = n
        self.strategy = strategy
        self.reduction = reduction_for(strategy)
        self.primes: list[int] = []
        self._index: dict[int, int] = {}
        self.roots: list[int] = []  # psi, a primitive 2n-th root, per prime
        self._psi_2n = psi_2n
        self._tables: dict[tuple, tuple] = {}

    def index(self, p: int) -> int:
        """Row of prime ``p``, appending it (and extending every table) if new."""
        row = self._index.get(p)
        if row is not None:
            return row
        if (p - 1) % (2 * self.n) != 0:
            raise ValueError("p must satisfy p ≡ 1 (mod 2n)")
        psi = self._psi_2n if self._psi_2n is not None else primitive_root_of_unity(2 * self.n, p)
        row = self._index[p] = len(self.primes)
        self.primes.append(p)
        self.roots.append(psi)
        for name, arrays in self._tables.items():
            extra = self._build(name, row)
            self._tables[name] = tuple(np.concatenate(pair) for pair in zip(arrays, extra))
        return row

    def rows(self, lo: int, hi: int) -> "TableRows":
        """A view of primes ``lo:hi`` — what the engine kernels sweep."""
        return TableRows(self, lo, hi)

    def table(self, name: tuple) -> tuple:
        """The stacked ``(values, *companions)`` arrays of one named table."""
        arrays = self._tables.get(name)
        if arrays is None:
            arrays = self._tables[name] = self._build(name, 0)
        return arrays

    def _build(self, name: tuple, start: int) -> tuple:
        values = np.ascontiguousarray(_table(name, self.n, self.primes[start:], self.roots[start:]))
        primes = np.asarray(self.primes[start:], dtype=np.uint64).reshape(-1, 1)
        return (values,) + self.reduction.companions(values, primes)


class TableRows:
    """Primes ``lo:hi`` of an :class:`EngineTables` — the kernels' handle.

    ``p``/``p2`` are ``(m, 1, 1, 1)`` modulus columns that broadcast against
    the kernels' 5-D ``(k, m, ...)`` views; :meth:`table` slices the shared
    stacked arrays.  ``tight`` flags a basis whose lazy values (``< 4p``)
    exceed the reduction's operand limit, so multiplicands are first
    brought below ``2p``.
    """

    def __init__(self, tables: EngineTables, lo: int, hi: int) -> None:
        self.base, self.lo, self.hi, self.m = tables, lo, hi, hi - lo
        self.n = tables.n
        self.strategy = tables.strategy
        self.reduction = tables.reduction
        self.max_p = max(tables.primes[lo:hi])
        self.tight = 4 * self.max_p > self.reduction.limit
        self.p = np.asarray(tables.primes[lo:hi], dtype=np.uint64).reshape(-1, 1, 1, 1)
        self.p2 = self.p * np.uint64(2)

    def rows(self, lo: int, hi: int) -> "TableRows":
        """Rows ``lo:hi`` of this view."""
        return TableRows(self.base, self.lo + lo, self.lo + hi)

    def table(self, name: tuple) -> tuple:
        return tuple(array[self.lo : self.hi] for array in self.base.table(name))


# ------------------------------------------------------------ array kernels


class _Scratch(threading.local):
    """Per-thread kernel scratch: one flat ``uint64`` buffer per name, grown on demand."""

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, names: str, shape: tuple) -> list:
        size = math.prod(shape)
        views = []
        for name in names.split():
            buffer = self.buffers.get(name)
            if buffer is None or buffer.size < size:
                buffer = self.buffers[name] = np.empty(max(size, TILE_ELEMS), dtype=np.uint64)
            views.append(buffer[:size].reshape(shape))
        return views


#: This thread's reusable scratch buffers: ``scratch("t u", shape)``.
scratch = _Scratch().take


def _tiles(block, tables: TableRows):
    """Cache-sized ``(kt, mt, n)`` tiles of a ``(k, m, n)`` block, with their rows."""
    k, m, n = block.shape
    fit = max(1, TILE_ELEMS // n)
    if m <= fit:
        for start in range(0, k, fit // m):
            yield block[start : start + fit // m], tables
        return
    for index in range(k):
        for lo in range(0, m, fit):
            hi = min(m, lo + fit)
            yield block[index : index + 1, lo:hi], tables.rows(lo, hi)


def _twiddles(arrays: tuple, lo: int, hi: int, shape: tuple) -> tuple:
    """Columns ``lo:hi`` of each stacked array, reshaped for broadcasting."""
    return tuple(array[:, lo:hi].reshape(shape) for array in arrays)


def _lazy_product(x, w, rows: TableRows, out, buffers):
    """``out = x * w mod p`` in ``[0, 2p)`` for ``x < 4p`` (``x`` may be clobbered)."""
    t, u, v = buffers
    if rows.tight:
        reduce_below(x, rows.p2, x, t)
    return rows.reduction.mul_lazy(x, w[0], w[1:], rows.p, rows.p2, out, t, u, v)


def _reduced_product(x, w, rows: TableRows, out, buffers):
    """``out = x * w mod p``, fully reduced: ``%`` below 2^31, else Shoup."""
    if rows.strategy == "shoup32":
        np.multiply(x, w[0], out=out)
        return np.remainder(out, rows.p, out=out)
    _lazy_product(x, w, rows, out, buffers)
    return reduce_below(out, rows.p, out, buffers[0])


def _finish(tile5, rows: TableRows, from_4p: bool = False) -> None:
    """Fully reduce a tile in place from ``[0, 2p)`` (or ``[0, 4p)``)."""
    (t,) = scratch("t", tile5.shape)
    if from_4p:
        reduce_below(tile5, rows.p2, tile5, t)
    reduce_below(tile5, rows.p, tile5, t)


def _pease(source, buffers, table: tuple, rows: TableRows, inverse: bool):
    """Lazy constant-geometry (Pease) cyclic NTT along the last axis of ``(k, m, b, L)``.

    Forward: natural in, bit-reversed out; each stage pairs ``j`` with
    ``j + L/2`` (contiguous halves) and writes the Gentleman-Sande outputs
    to ``2j, 2j + 1``, values below ``2p``.  Inverse: the transpose,
    bit-reversed in, natural out, values below ``4p``.  Reads ``source``,
    then alternates between ``buffers``; returns the one holding the result.
    """
    k, m, b, length = source.shape
    half = length // 2
    stages = half.bit_length()
    p2 = rows.p2
    for step in range(stages):
        s = stages - 1 - step if inverse else step
        run = 1 << s
        if run < EXPANDED_RUNS:
            groups, run = 1, half
            w = _twiddles(table, s * half, (s + 1) * half, (m, 1, 1, half))
        else:
            groups = half // run
            w = tuple(array[:, :half:run].reshape(m, 1, groups, 1) for array in table)
        dst = buffers[step % 2]
        x, y, t, u, v = scratch("x y t u v", (k, m, b, groups, run))
        if inverse:
            pairs = source.reshape(k, m, b, groups, run, 2)
            halves = dst.reshape(k, m, b, 2, groups, run)
            reduce_below(pairs[..., 0], p2, x, t)
            _lazy_product(pairs[..., 1], w, rows, y, (t, u, v))
            np.add(x, y, out=halves[:, :, :, 0])
            np.add(x, p2, out=x)
            np.subtract(x, y, out=halves[:, :, :, 1])
        else:
            halves = source.reshape(k, m, b, 2, groups, run)
            pairs = dst.reshape(k, m, b, groups, run, 2)
            np.add(halves[:, :, :, 0], halves[:, :, :, 1], out=x)
            reduce_below(x, p2, pairs[..., 0], t)
            np.subtract(halves[:, :, :, 0], halves[:, :, :, 1], out=y)
            np.add(y, p2, out=y)
            _lazy_product(y, w, rows, pairs[..., 1], (t, u, v))
        source = dst
    return source


def _ct_forward(tile, rows: TableRows, lazy: bool) -> None:
    """Cooley-Tukey forward sweep in place: Harvey's lazy butterfly, or ``%``."""
    k, m, n = tile.shape
    p, p2 = rows.p, rows.p2
    table = rows.table(("ct", False))
    groups, half = 1, n // 2
    while groups < n:
        view = tile.reshape(k, m, groups, 2, half)
        upper, lower = view[:, :, :, :1], view[:, :, :, 1:]
        x, y, t, u, v = scratch("x y t u v", upper.shape)
        w = _twiddles(table, groups, 2 * groups, (m, groups, 1, 1))
        if lazy:  # values in [0, 4p)
            _lazy_product(lower, w, rows, y, (t, u, v))
            reduce_below(upper, p2, x, t)
            np.add(x, y, out=upper)
            np.add(x, p2, out=x)
            np.subtract(x, y, out=lower)
        else:
            _reduced_product(lower, w, rows, y, (t, u, v))
            np.add(upper, y, out=x)
            np.subtract(upper, y, out=y)
            np.add(y, p, out=y)
            np.remainder(x, p, out=upper)
            np.remainder(y, p, out=lower)
        groups, half = groups * 2, half // 2
    if lazy:
        _finish(tile.reshape(k, m, 1, 1, n), rows, from_4p=True)


def _gs_inverse(tile, rows: TableRows, lazy: bool) -> None:
    """Gentleman-Sande inverse sweep in place, then the ``n^{-1}`` scaling."""
    k, m, n = tile.shape
    p, p2 = rows.p, rows.p2
    table = rows.table(("ct", True))
    groups, half = n // 2, 1
    while groups >= 1:
        view = tile.reshape(k, m, groups, 2, half)
        upper, lower = view[:, :, :, :1], view[:, :, :, 1:]
        x, y, t, u, v = scratch("x y t u v", upper.shape)
        w = _twiddles(table, groups, 2 * groups, (m, groups, 1, 1))
        np.add(upper, lower, out=x)
        np.subtract(upper, lower, out=y)
        if lazy:  # values in [0, 2p)
            np.add(y, p2, out=y)
            reduce_below(x, p2, upper, t)
            _lazy_product(y, w, rows, lower, (t, u, v))
        else:
            np.add(y, p, out=y)
            np.remainder(x, p, out=upper)
            np.remainder(y, p, out=y)
            _reduced_product(y, w, rows, lower, (t, u, v))
        groups, half = groups // 2, half * 2
    tile5 = tile.reshape(k, m, 1, 1, n)
    n_inv = _twiddles(rows.table(("n_inv", False)), 0, 1, (m, 1, 1, 1))
    _reduced_product(tile5, n_inv, rows, tile5, scratch("t u v", tile5.shape))


@lru_cache(maxsize=None)
def _four_step_gathers(n: int, n1: int):
    """Gathers fusing the four-step reorderings with bit reversal.

    The kernels leave natural index ``k1 + n1*k2`` at ``rev1(k1)*n2 +
    rev2(k2)`` of their ``(n1, n2)`` result.  Returns the gathers of the
    bit-reversed output from it, of the ``(n2, n1)`` kernel input from
    bit-reversed data (``[j2, j1]`` is index ``j1*n2 + j2``), and of the
    natural-order output from it.
    """
    n2 = n // n1
    bitrev = bit_reverse_index_array(n)
    rev1, rev2 = bit_reverse_index_array(n1), bit_reverse_index_array(n2)
    high, low = np.divmod(np.arange(n), n1)
    natural = rev1[low] * n2 + rev2[high]
    return natural[bitrev], bitrev[low * n2 + high], natural


# -------------------------------------------------------------------- engines


class NttEngine(abc.ABC):
    """One negacyclic-NTT algorithm as an array kernel of the NumPy data plane.

    Engines are stateless flyweights (twiddle material lives in the owning
    backend's :class:`EngineTables`) shared process-wide through
    :func:`get_engine`.  :meth:`forward_array` / :meth:`inverse_array`
    transform a C-contiguous ``(k, m, n)`` ``uint64`` block in place: ``k``
    repetitions of the ``m`` primes of a :class:`TableRows` view, every
    prime below 2^62.  The block is a private copy the backend hands over;
    the methods return it.

    Every engine uses the conventions of Algorithm 1: forward output and
    inverse input are in bit-reversed order, every residue fully reduced —
    which is what makes all engines bit-for-bit interchangeable.
    """

    #: Registry name ("radix2", "high_radix", ...).
    name: str = "abstract"
    #: Full selection spec, including a parameter ("high_radix:8").
    spec: str = "abstract"

    def forward_array(self, block, tables: TableRows):
        """Forward-transform a ``(k, m, n)`` uint64 block in place."""
        with kernel_buffers():
            for tile, rows in _tiles(block, tables):
                self._forward_tile(tile, rows)
        return block

    def inverse_array(self, block, tables: TableRows):
        """Inverse-transform a ``(k, m, n)`` uint64 block in place."""
        with kernel_buffers():
            for tile, rows in _tiles(block, tables):
                self._inverse_tile(tile, rows)
        return block

    @abc.abstractmethod
    def _forward_tile(self, tile, rows: TableRows) -> None:
        """Forward-transform one cache-sized ``(kt, mt, n)`` tile in place."""

    @abc.abstractmethod
    def _inverse_tile(self, tile, rows: TableRows) -> None:
        """Inverse-transform one cache-sized ``(kt, mt, n)`` tile in place."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(spec=%r)" % (type(self).__name__, self.spec)


class Radix2Engine(NttEngine):
    """Algorithm 1 verbatim: one radix-2 stage per pass, ``%`` reductions.

    The baseline every other engine is benchmarked against: each butterfly
    output is reduced with a hardware-division ``%``, and so is each
    twiddle product below 2^31 (above, where a native product would
    overflow, the basis's Shoup reduction forms it).
    """

    name = "radix2"
    spec = "radix2"

    def _forward_tile(self, tile, rows):
        _ct_forward(tile, rows, lazy=False)

    def _inverse_tile(self, tile, rows):
        _gs_inverse(tile, rows, lazy=False)


class HighRadixEngine(NttEngine):
    """Register high-radix execution (Section V): lazy radix-2 butterflies.

    A radix-``2^k`` GPU kernel runs ``k`` consecutive radix-2 stages per
    pass over main memory; the butterflies are exactly the radix-2 ones.
    On a CPU a tile already sits in cache for every stage, so the radix
    only names the spec: every ``high_radix:R`` runs the same lazy
    Cooley-Tukey / Gentleman-Sande sweep, and the radix shapes the passes
    of the GPU cost model (:func:`repro.kernels.high_radix.high_radix_ntt_model`).
    """

    name = "high_radix"

    def __init__(self, radix: int = 16) -> None:
        if not is_power_of_two(radix) or radix < 2:
            raise ValueError("high-radix engine needs a power-of-two radix >= 2")
        self.radix = radix
        self.spec = "high_radix:%d" % radix

    def _forward_tile(self, tile, rows):
        _ct_forward(tile, rows, lazy=True)

    def _inverse_tile(self, tile, rows):
        _gs_inverse(tile, rows, lazy=True)


class StockhamEngine(NttEngine):
    """Stockham auto-sort NTT (Algorithm 3) re-ordered to the common convention.

    The kernel runs the auto-sort family in Pease's constant geometry
    ("An adaptation of the fast Fourier transform for parallel
    processing", J. ACM 1968): every stage reads two contiguous halves and
    writes interleaved pairs, and the forward sweep lands in bit-reversed
    order directly, so no gather remains.  The pre-twist by ``psi^i``
    merges the negacyclic wrap; the inverse post-twist folds in ``n^{-1}``.
    """

    name = "stockham"
    spec = "stockham"

    def _forward_tile(self, tile, rows):
        k, m, n = tile.shape
        a, b, t, u, v = scratch("a b t u v", (k, m, 1, 1, n))
        psi = _twiddles(rows.table(("twist", False)), 0, n, (m, 1, 1, n))
        tile5 = tile.reshape(k, m, 1, 1, n)
        rows.reduction.mul_lazy(tile5, psi[0], psi[1:], rows.p, rows.p2, a, t, u, v)
        shape = (k, m, 1, n)
        result = _pease(
            a.reshape(shape), (b.reshape(shape), a.reshape(shape)),
            rows.table(("pease", False)), rows, inverse=False,
        )
        reduce_below(result.reshape(tile5.shape), rows.p, tile5, t)

    def _inverse_tile(self, tile, rows):
        k, m, n = tile.shape
        shape = (k, m, 1, n)
        a, b = scratch("a b", shape)
        result = _pease(tile.reshape(shape), (a, b), rows.table(("pease", True)), rows, inverse=True)
        tile5 = tile.reshape(k, m, 1, 1, n)
        post = _twiddles(rows.table(("twist", True)), 0, n, (m, 1, 1, n))
        _lazy_product(result.reshape(tile5.shape), post, rows, tile5, scratch("t u v", tile5.shape))
        _finish(tile5, rows)


class FourStepEngine(NttEngine):
    """Four-step (Bailey) decomposition — the paper's two-kernel SMEM shape.

    ``N = N1 * N2``: strided ``N1``-point NTTs (Kernel-1), a twist, contiguous
    ``N2``-point NTTs (Kernel-2), and a transpose.  Both kernels are
    constant-geometry sweeps; the transposes are fused into the twiddle
    products, and every reordering (bit reversal included) into one gather
    per direction.  ``N1`` is configurable (spec ``"four_step:64"``) so the
    experiments can sweep kernel splits on the real data plane; invalid or
    absent splits fall back to the even default, and a degenerate split runs
    the plain Stockham kernel.
    """

    name = "four_step"

    def __init__(self, n1: int | None = None) -> None:
        if n1 is not None and (not is_power_of_two(n1) or n1 < 2):
            raise ValueError("four-step engine needs a power-of-two n1 >= 2")
        self.n1 = n1
        self.spec = "four_step" if n1 is None else "four_step:%d" % n1

    def _split(self, n: int) -> int:
        if self.n1 is not None and 1 < self.n1 < n and n % self.n1 == 0:
            return self.n1
        return default_split(n)[0]

    def _forward_tile(self, tile, rows):
        self._four_step(tile, rows, inverse=False)

    def _inverse_tile(self, tile, rows):
        self._four_step(tile, rows, inverse=True)

    def _four_step(self, tile, rows: TableRows, inverse: bool) -> None:
        k, m, n = tile.shape
        n1 = self._split(n)
        n2 = n // n1
        if n1 <= 1 or n2 <= 1:  # degenerate split: the plain auto-sort kernel
            sweep = StockhamEngine._inverse_tile if inverse else StockhamEngine._forward_tile
            return sweep(self, tile, rows)
        a, b, t, u, v = scratch("a b t u v", (k, m, 1, n2, n1))
        to_output, from_input, to_natural = _four_step_gathers(n, n1)
        if inverse:
            np.take(tile, from_input, axis=-1, out=a.reshape(k, m, n), mode="clip")
        else:  # pre-twist by psi^i, read transposed: columns[j2, j1] = tile[j1*n2 + j2]
            psi = tuple(
                array.reshape(m, 1, n1, n2).transpose(0, 1, 3, 2)
                for array in rows.table(("twist", False))
            )
            columns = tile.reshape(k, m, 1, n1, n2).transpose(0, 1, 2, 4, 3)
            rows.reduction.mul_lazy(columns, psi[0], psi[1:], rows.p, rows.p2, a, t, u, v)
        result = self._kernels(a, b, rows, n1, n2, inverse).reshape(k, m, n)
        tile5 = tile.reshape(k, m, 1, 1, n)
        if inverse:
            natural = b if np.may_share_memory(result, a) else a
            np.take(result, to_natural, axis=-1, out=natural.reshape(k, m, n), mode="clip")
            post = _twiddles(rows.table(("twist", True)), 0, n, (m, 1, 1, n))
            t, u, v = (buffer.reshape(tile5.shape) for buffer in (t, u, v))
            rows.reduction.mul_lazy(
                natural.reshape(tile5.shape), post[0], post[1:], rows.p, rows.p2, tile5, t, u, v
            )
        else:
            np.take(result, to_output, axis=-1, out=tile, mode="clip")
        _finish(tile5, rows)

    @staticmethod
    def _kernels(a, b, rows: TableRows, n1: int, n2: int, inverse: bool):
        """Kernel-1, twist, Kernel-2 over the ``(n2, n1)`` columns in ``a``.

        Returns the ``(k, m, n1, n2)`` result (in ``a`` or ``b``), both
        kernel outputs in bit-reversed order along their rows.
        """
        k, m = a.shape[:2]
        inner = rows.table(("four_step", inverse, n1, "inner"))
        columns = _pease(
            a.reshape(k, m, n2, n1), (b.reshape(k, m, n2, n1), a.reshape(k, m, n2, n1)),
            inner, rows, inverse=False,
        )
        spare = b if np.may_share_memory(columns, a) else a
        # Twist by omega^(j2*k1), written transposed for the n2-point kernel.
        twist = tuple(
            array.reshape(m, 1, n2, n1).transpose(0, 1, 3, 2)
            for array in rows.table(("four_step", inverse, n1, "twist"))
        )
        t, u, v = scratch("t u v", (k, m, 1, n1, n2))
        source = columns.reshape(k, m, 1, n2, n1).transpose(0, 1, 2, 4, 3)
        _lazy_product(source, twist, rows, spare.reshape(k, m, 1, n1, n2), (t, u, v))
        shape = (k, m, n1, n2)
        other = a if spare is b else b
        return _pease(
            spare.reshape(shape), (other.reshape(shape), spare.reshape(shape)),
            rows.table(("four_step", inverse, n1, "outer")), rows, inverse=False,
        )


# ------------------------------------------------------------------- registry

_engine_factories: dict[str, Callable[[int | None], NttEngine]] = {}
_engine_instances: dict[str, NttEngine] = {}


def register_engine(name: str, factory: Callable[[int | None], NttEngine]) -> None:
    """Register an engine factory under ``name``.

    The factory receives the optional integer parameter of a
    ``"name:param"`` spec (``None`` when the spec is bare) and must return an
    :class:`NttEngine`.
    """
    if name in _engine_factories:
        raise ValueError("engine %r is already registered" % name)
    _engine_factories[name] = factory


def _no_param(name: str, builder: Callable[[], NttEngine]) -> Callable[[int | None], NttEngine]:
    def factory(param: int | None) -> NttEngine:
        if param is not None:
            raise ValueError("engine %r takes no parameter" % name)
        return builder()

    return factory


register_engine("radix2", _no_param("radix2", Radix2Engine))
register_engine("high_radix", lambda param: HighRadixEngine(param if param is not None else 16))
register_engine("four_step", lambda param: FourStepEngine(param))
register_engine("stockham", _no_param("stockham", StockhamEngine))


def available_engines() -> list[str]:
    """Registered engine names, in registration order."""
    return list(_engine_factories)


def get_engine(spec: str) -> NttEngine:
    """Resolve a spec (``"radix2"``, ``"high_radix:8"``) to its cached flyweight engine."""
    engine = _engine_instances.get(spec)
    if engine is None:
        name, _, text = spec.partition(":")
        if name not in _engine_factories:
            from .ops import NODE_NAMES

            raise KeyError(
                "unknown NTT engine %r (registered: %s).  Engines execute "
                "the forward_ntt / inverse_ntt plan nodes (all nodes: %s)"
                % (name, ", ".join(_engine_factories), ", ".join(NODE_NAMES))
            )
        try:
            param = int(text) if text else None
        except ValueError:
            raise ValueError("engine parameter in %r must be an integer" % spec) from None
        engine = _engine_factories[name](param)
        _engine_instances[spec] = engine
    return engine
