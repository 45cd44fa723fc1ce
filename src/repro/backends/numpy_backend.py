"""NumPy backend: resident ``uint64`` residue tensors, one kernel pass per op.

The whole residue matrix of a tensor lives in one 2-D ``uint64`` array
across operations, and every operation is array work over all of its rows
at once — the software analogue of the paper's device-resident batched
kernels (Section III / Fig. 3):

* **Transforms** view a tensor as runs of whole basis repetitions: rows
  ``p0 .. p{m-1}`` repeated ``k`` times form one ``(k, m, n)`` block, and
  each run is one call into the selected
  :class:`~repro.backends.engines.NttEngine`, sweeping the basis's stacked
  twiddle tables (:class:`~repro.backends.engines.EngineTables`) broadcast
  over ``k``.  A regular tensor is one run; a pool shard that starts
  mid-basis, or an irregular layout, splits into a few.
* **Pointwise ops** are one pass over the whole tensor against a per-row
  modulus column: add/sub/neg reduce with one conditional subtraction,
  ``mul`` and ``scalar_mul`` go through the tensor's reduction strategy
  (:mod:`repro.backends.wideops`), ``inner_product`` accumulates its
  products in the same pass and reduces late, and digit broadcast and
  modulus switching run column-wise too.

Every prime below the 2^62 storage limit runs these exact array kernels.
Rows with primes of 2^62 or more (never generated by this repository's
parameter sets) are held as exact Python rows inside the tensor (``big``)
and run, per prime, through the exact big-int kernels of
:class:`~repro.backends.scalar.ScalarBackend` — its one transform
included.  They never enter the array, so they cross no list/array
boundary; the rows are charged to
:attr:`~repro.backends.base.ComputeBackend.fallback_rows`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..telemetry import TRACER
from . import wideops
from .base import ComputeBackend, ResidueRows, ResidueTensor, python_row
from .engines import (
    ARRAY_ENGINE,
    TILE_ELEMS,
    EngineTables,
    NttEngine,
    get_engine,
    kernel_buffers,
    scratch,
    tile_rows,
)
from .scalar import ScalarBackend
from .wideops import WIDE_MUL_LIMIT, reduce_below, select_strategy

__all__ = ["NumpyBackend", "NumpyTensor", "MUL_VECTORIZED_LIMIT", "STORAGE_LIMIT", "store_rows"]

#: Largest modulus (exclusive) for which *native* uint64 products ``a * b``
#: are exact; above it, products run the wide-word kernels of
#: :mod:`repro.backends.wideops` up to :data:`STORAGE_LIMIT`.
MUL_VECTORIZED_LIMIT = 1 << 31
#: Largest modulus (exclusive) whose residues are stored in the uint64 array,
#: and the window of every array kernel (sums ``a + p - b`` and the
#: wide-word products are exact below it); wider rows live as exact Python
#: rows inside the tensor.
STORAGE_LIMIT = WIDE_MUL_LIMIT
#: The largest uint64: the inner product's unreduced native sums stay below it.
WORD_MAX = (1 << 64) - 1


def store_rows(data: np.ndarray, rows: ResidueRows, primes: Sequence[int]) -> dict[int, list[int]]:
    """Reduce ``rows`` into the ``uint64`` array ``data``, row by row.

    Returns the exact Python rows of primes at or above
    :data:`STORAGE_LIMIT` (their ``data`` rows stay as they were).
    """
    big: dict[int, list[int]] = {}
    for index, (row, p) in enumerate(zip(rows, primes)):
        if p < STORAGE_LIMIT:
            try:
                data[index] = np.asarray(row, dtype=np.uint64) % np.uint64(p)
            except OverflowError:
                # Unreduced entries beyond uint64 (the contract accepts
                # them): reduce in Python first, then store.
                data[index] = np.asarray([value % p for value in row], dtype=np.uint64)
        else:
            big[index] = [value % p for value in python_row(row)]
    return big


class NumpyTensor(ResidueTensor):
    """Residue tensor resident as one ``(count, n)`` ``uint64`` ndarray.

    Rows whose prime does not fit the storage window (≥ 2^62) are kept as
    exact Python rows in ``big`` with a zero placeholder row in ``data`` so
    array indexing stays uniform.
    """

    __slots__ = ("data", "big")

    def __init__(self, backend, primes, n, data: np.ndarray, big=None) -> None:
        super().__init__(backend, primes, n)
        self.data = data
        self.big: dict[int, list[int]] = big if big is not None else {}


class _Columns:
    """Per-row moduli of one prime tuple for the pointwise kernels.

    ``p`` is a ``(count, 1)`` ``uint64`` column (a placeholder 1 on rows at
    or above :data:`STORAGE_LIMIT`, which ``fallback`` maps by prime to
    their indices).
    """

    __slots__ = ("p", "fallback", "primes")

    def __init__(self, primes: tuple) -> None:
        self.primes = [p if p < STORAGE_LIMIT else 1 for p in primes]
        self.p = np.asarray(self.primes, dtype=np.uint64).reshape(-1, 1)
        self.fallback: dict[int, list[int]] = {}
        for index, p in enumerate(primes):
            if p >= STORAGE_LIMIT:
                self.fallback.setdefault(p, []).append(index)

    @property
    def strategy(self) -> str:
        """The reduction of the largest stored prime: the products' strategy."""
        return select_strategy(max(self.primes, default=1))


class NumpyBackend(ComputeBackend):
    """Batched uint64 backend with a counted per-prime scalar fallback.

    The same twiddle derivation as
    :class:`repro.transforms.cooley_tukey.NegacyclicTransformer` is used, so
    outputs are bit-identical to the scalar oracle (bit-reversed forward
    output, Gentleman-Sande inverse) under *every* registered
    :class:`~repro.backends.engines.NttEngine`.  Each basis run of a
    transform is one call into an engine's array kernel over the resident
    storage; rows of primes at or above the storage limit run the oracle's
    transform (the counted per-prime fallback).

    Every array run executes the fixed kernel
    (:data:`~repro.backends.engines.ARRAY_ENGINE`), recorded per
    ``(n, p_bits, batch)`` in :attr:`engine_choices`, where ``batch`` is the
    rows of the tile the kernel sweeps
    (:func:`~repro.backends.engines.tile_rows`).  ``engine=spec`` builds a
    backend that runs that engine instead and records no choice; it is the
    one way to choose a kernel (the figures use it to measure the zoo).
    """

    name = "numpy"

    def __init__(self, engine: str | None = None) -> None:
        super().__init__()
        self._tables: dict[tuple[int, str], EngineTables] = {}
        self._fallback = ScalarBackend()
        if engine is not None:
            get_engine(engine)  # validate eagerly
        self._engine = engine
        self._engine_choices: dict[tuple[int, int, int], str] = {}
        self.metrics.set_gauge("ntt.engine_choices", lambda: self.engine_choices)

    # -- engine selection --------------------------------------------------------
    @property
    def engine(self) -> str | None:
        """The engine spec this backend was built with, or ``None`` for the fixed kernel."""
        return self._engine

    @property
    def engine_choices(self) -> dict[tuple[int, int, int], str]:
        """Shapes run on the fixed array kernel so far, keyed by ``(n, p_bits, batch)``."""
        return dict(self._engine_choices)

    def _select_engine(self, n: int, p: int, batch: int) -> NttEngine:
        """The engine for one array run of the basis whose largest prime is ``p``."""
        spec = self._engine
        if spec is None:
            spec = self._engine_choices[(n, p.bit_length(), batch)] = ARRAY_ENGINE
        return get_engine(spec)

    @property
    def resident_contexts(self) -> int:
        """Cached per-``(n, p)`` twiddle contexts (vectorised plus scalar-fallback)."""
        return (
            sum(len(tables.primes) for tables in self._tables.values())
            + self._fallback.resident_contexts
        )

    def _tables_for(self, n: int, p: int) -> EngineTables:
        """The stacked tables holding prime ``p`` at length ``n``."""
        key = (n, select_strategy(p))
        tables = self._tables.get(key)
        if tables is None:
            tables = self._tables[key] = EngineTables(n, key[1])
        return tables

    def warm_twiddles(self, n: int, primes: Sequence[int]) -> None:
        # Registering the basis in order keeps its transforms one run each.
        for p in dict.fromkeys(primes):
            if p < STORAGE_LIMIT:
                self._tables_for(n, p).index(p)
            else:
                self._fallback.transformer(n, p)

    # -- boundary conversions --------------------------------------------------
    def from_rows(self, rows: ResidueRows, primes: Sequence[int]) -> NumpyTensor:
        self._check_rows_shape(rows, primes)
        self._count_conversion(len(rows))
        n = len(rows[0]) if rows else 0
        data = np.zeros((len(rows), n), dtype=np.uint64)
        return NumpyTensor(self, primes, n, data, store_rows(data, rows, primes))

    def to_rows(self, tensor: ResidueTensor) -> list[list[int]]:
        self._check_owned(tensor)
        self._count_conversion(tensor.count)
        rows = tensor.data.tolist()
        for index, row in tensor.big.items():
            rows[index] = list(row)
        return rows

    # -- fallback boundary (counted when a row leaves the resident array) ------
    def _extract_rows(
        self, tensor: NumpyTensor, indices: Sequence[int]
    ) -> list[list[int]]:
        rows = []
        converted = 0
        for index in indices:
            if index in tensor.big:
                rows.append(list(tensor.big[index]))
            else:
                rows.append(tensor.data[index].tolist())
                converted += 1
        self._count_conversion(converted)
        return rows

    def _store_rows(self, out: NumpyTensor, indices, rows, p: int) -> None:
        converted = 0
        for index, row in zip(indices, rows):
            if p < STORAGE_LIMIT:
                out.data[index] = np.asarray(row, dtype=np.uint64)
                converted += 1
            else:
                out.big[index] = list(row)
        self._count_conversion(converted)

    # -- layouts -----------------------------------------------------------------
    def _layout(self, n: int, primes: tuple) -> tuple[list, dict]:
        """``(runs, fallback)`` of a tensor: array runs and per-prime row groups.

        A run ``(start, k, m, rows)`` covers rows ``start : start + k*m``
        whose primes are the ``m`` consecutive primes of ``rows`` repeated
        ``k`` times.
        """
        runs: list = []
        fallback: dict[int, list[int]] = {}
        count = len(primes)
        i = 0
        while i < count:
            p = primes[i]
            if p >= STORAGE_LIMIT:
                fallback.setdefault(p, []).append(i)
                i += 1
                continue
            tables = self._tables_for(n, p)
            lo = tables.index(p)
            m = 1
            while (
                i + m < count
                and primes[i + m] < STORAGE_LIMIT
                and self._tables_for(n, primes[i + m]) is tables
                and tables.index(primes[i + m]) == lo + m
            ):
                m += 1
            k = 1
            while primes[i + k * m : i + (k + 1) * m] == primes[i : i + m]:
                k += 1
            runs.append((i, k, m, tables.rows(lo, lo + m)))
            i += k * m
        return runs, fallback

    # -- transforms ------------------------------------------------------------
    def forward_ntt_batch(self, tensor: ResidueTensor) -> NumpyTensor:
        return self._transform(tensor, forward=True)

    def inverse_ntt_batch(self, tensor: ResidueTensor) -> NumpyTensor:
        return self._transform(tensor, forward=False)

    def _transform(self, tensor: ResidueTensor, forward: bool) -> NumpyTensor:
        self._check_owned(tensor)
        n = tensor.n
        runs, fallback = self._layout(n, tensor.primes)
        data = tensor.data.copy()
        out = NumpyTensor(self, tensor.primes, n, data, {})
        for start, k, m, rows in runs:
            block = data[start : start + k * m].reshape(k, m, n)
            engine = self._select_engine(n, rows.max_p, tile_rows(k, m, n))
            with TRACER.span("ntt.engine", engine=engine.spec, n=n, rows=k * m):
                if forward:
                    engine.forward_array(block, rows)
                else:
                    engine.inverse_array(block, rows)
        for p, indices in fallback.items():
            self._count_fallback(len(indices))
            rows_in = self._extract_rows(tensor, indices)
            transformed = self._fallback._transform_rows(rows_in, [p] * len(indices), forward)
            self._store_rows(out, indices, transformed, p)
        return out

    # -- pointwise arithmetic --------------------------------------------------
    def _pointwise(self, kernel, fallback, columns: _Columns, *operands) -> NumpyTensor:
        """One tiled pass of ``kernel(out, tiles, columns, lo, hi, scratch)`` over all rows.

        ``tiles`` holds rows ``lo:hi`` of every operand, ``scratch`` five
        tile-shaped buffers.  Rows that ``columns`` leaves out are recomputed
        afterwards through the counted per-prime ``fallback(*operand_rows,
        primes)``.
        """
        first = operands[0]
        count, n = first.data.shape
        data = np.empty_like(first.data)
        step = max(1, TILE_ELEMS // max(n, 1))
        with kernel_buffers():
            for lo in range(0, count, step):
                hi = min(count, lo + step)
                kernel(
                    data[lo:hi],
                    [operand.data[lo:hi] for operand in operands],
                    columns,
                    lo,
                    hi,
                    scratch("t u v x y", (hi - lo, n)),
                )
        out = NumpyTensor(self, first.primes, first.n, data, {})
        for p, indices in columns.fallback.items():
            self._count_fallback(len(indices))
            rows = [self._extract_rows(operand, indices) for operand in operands]
            self._store_rows(out, indices, fallback(*rows, [p] * len(indices)), p)
        return out

    def add(self, a: ResidueTensor, b: ResidueTensor) -> NumpyTensor:
        self._check_pair(a, b)

        def kernel(out, tiles, columns, lo, hi, scratch):
            np.add(*tiles, out=out)
            reduce_below(out, columns.p[lo:hi], out, scratch[0])

        columns = _Columns(a.primes)
        return self._pointwise(kernel, self._fallback._add_rows, columns, a, b)

    def sub(self, a: ResidueTensor, b: ResidueTensor) -> NumpyTensor:
        self._check_pair(a, b)

        def kernel(out, tiles, columns, lo, hi, scratch):
            # x - y wraps when negative; adding p then wraps back below p.
            np.subtract(*tiles, out=out)
            np.add(out, columns.p[lo:hi], out=scratch[0])
            np.minimum(out, scratch[0], out=out)

        columns = _Columns(a.primes)
        return self._pointwise(kernel, self._fallback._sub_rows, columns, a, b)

    def neg(self, a: ResidueTensor) -> NumpyTensor:
        self._check_owned(a)

        def kernel(out, tiles, columns, lo, hi, scratch):
            # min(p - x, -x): the wrapped -x is huge unless x == 0.
            (x,) = tiles
            np.subtract(columns.p[lo:hi], x, out=out)
            np.negative(x, out=scratch[0])
            np.minimum(out, scratch[0], out=out)

        columns = _Columns(a.primes)
        return self._pointwise(kernel, self._fallback._neg_rows, columns, a)

    def mul(self, a: ResidueTensor, b: ResidueTensor) -> NumpyTensor:
        self._check_pair(a, b)

        columns = _Columns(a.primes)
        strategy = columns.strategy

        def kernel(out, tiles, columns, lo, hi, scratch):
            wideops.mulmod(*tiles, columns.p[lo:hi], strategy, out, scratch[:4])

        return self._pointwise(kernel, self._fallback._mul_rows, columns, a, b)

    def inner_product(self, pairs, addends=()) -> NumpyTensor:
        """One tiled multiply-accumulate pass; the reduction follows the primes.

        Below 2^31 the native products are summed unreduced and a ``%``
        runs whenever the next term could carry the sum past 2^64 (every 16
        products at 30-bit primes) and once at the end.  Above, each product
        is a :func:`~repro.backends.wideops.mulmod` and each sum takes one
        conditional subtraction, as ``add`` does.
        """
        operands = self._check_operands(pairs, addends)
        factors = 2 * len(pairs)  # the pairs lead the operand list
        columns = _Columns(operands[0].primes)
        strategy = columns.strategy
        # Every residue is at most top and every product at most top**2.
        top = max(columns.primes) - 1

        def narrow(out, tiles, columns, lo, hi, scratch):
            p, product = columns.p[lo:hi], scratch[4]
            (x, y), *rest = zip(tiles[0:factors:2], tiles[1:factors:2])
            np.multiply(x, y, out=out)
            bound = top * top
            for x, y in rest:
                if bound + top * top > WORD_MAX:
                    np.remainder(out, p, out=out)
                    bound = top
                np.multiply(x, y, out=product)
                np.add(out, product, out=out)
                bound += top * top
            for z in tiles[factors:]:
                if bound + top > WORD_MAX:
                    np.remainder(out, p, out=out)
                    bound = top
                np.add(out, z, out=out)
                bound += top
            np.remainder(out, p, out=out)

        def wide(out, tiles, columns, lo, hi, scratch):
            p, product = columns.p[lo:hi], scratch[4]
            (x, y), *rest = zip(tiles[0:factors:2], tiles[1:factors:2])
            wideops.mulmod(x, y, p, strategy, out, scratch[:4])
            for x, y in rest:
                wideops.mulmod(x, y, p, strategy, product, scratch[:4])
                np.add(out, product, out=out)
                reduce_below(out, p, out, scratch[0])
            for z in tiles[factors:]:
                np.add(out, z, out=out)
                reduce_below(out, p, out, scratch[0])

        def fallback(*rows):
            *rows, primes = rows
            return self._fallback._inner_product_rows(
                list(zip(rows[0:factors:2], rows[1:factors:2])), rows[factors:], primes
            )

        kernel = narrow if strategy == "shoup32" else wide
        return self._pointwise(kernel, fallback, columns, *operands)

    def scalar_mul(self, a: ResidueTensor, scalar: int) -> NumpyTensor:
        self._check_owned(a)
        columns = _Columns(a.primes)
        reduction = wideops.reduction_for(columns.strategy)
        w = np.asarray([scalar % p for p in columns.primes], dtype=np.uint64).reshape(-1, 1)
        companions = reduction.companions(w, columns.p)
        p2 = columns.p * np.uint64(2)

        def kernel(out, tiles, columns, lo, hi, scratch):
            (x,) = tiles
            p = columns.p[lo:hi]
            rows_w = [array[lo:hi] for array in (w,) + companions]
            reduction.mul_lazy(x, rows_w[0], rows_w[1:], p, p2[lo:hi], out, *scratch[:3])
            reduce_below(out, p, out, scratch[0])

        return self._pointwise(
            kernel,
            lambda rows, primes: self._fallback._scalar_mul_rows(rows, scalar, primes),
            columns,
            a,
        )

    # -- structural operations -------------------------------------------------
    def concat(self, tensors: Sequence[ResidueTensor]) -> NumpyTensor:
        if not tensors:
            raise ValueError("cannot concatenate an empty tensor sequence")
        n = tensors[0].n
        primes: list[int] = []
        big: dict[int, list[int]] = {}
        offset = 0
        for tensor in tensors:
            self._check_owned(tensor)
            if tensor.n != n:
                raise ValueError("all tensors in a concat must share n")
            primes.extend(tensor.primes)
            for index, row in tensor.big.items():
                big[offset + index] = list(row)
            offset += tensor.count
        data = np.concatenate([tensor.data for tensor in tensors], axis=0)
        return NumpyTensor(self, primes, n, data, big)

    def split(
        self, tensor: ResidueTensor, counts: Sequence[int]
    ) -> list[NumpyTensor]:
        self._check_owned(tensor)
        if sum(counts) != tensor.count:
            raise ValueError(
                "split counts sum to %d but tensor has %d rows"
                % (sum(counts), tensor.count)
            )
        pieces = []
        offset = 0
        for count in counts:
            pieces.append(self.slice_rows(tensor, offset, offset + count))
            offset += count
        return pieces

    def slice_rows(self, tensor: ResidueTensor, start: int, stop: int) -> NumpyTensor:
        self._check_owned(tensor)
        big = {
            index - start: list(row)
            for index, row in tensor.big.items()
            if start <= index < stop
        }
        return NumpyTensor(
            self,
            tensor.primes[start:stop],
            tensor.n,
            tensor.data[start:stop].copy(),
            big,
        )

    def copy(self, tensor: ResidueTensor) -> NumpyTensor:
        self._check_owned(tensor)
        return NumpyTensor(
            self,
            tensor.primes,
            tensor.n,
            tensor.data.copy(),
            {index: list(row) for index, row in tensor.big.items()},
        )

    def tensor_equal(self, a: ResidueTensor, b: ResidueTensor) -> bool:
        self._check_owned(a)
        self._check_owned(b)
        return (
            a.primes == b.primes
            and np.array_equal(a.data, b.data)
            and a.big == b.big
        )

    # -- RNS compound operations ----------------------------------------------
    def digit_broadcast(self, tensor: ResidueTensor, index: int) -> NumpyTensor:
        self._check_owned(tensor)
        count = tensor.count
        if not 0 <= index < count:
            raise ValueError("digit index %d out of range" % index)
        columns = _Columns(tensor.primes)
        # Row i reads row (i + index) mod count: the source rotated by index.
        data = np.empty_like(tensor.data)
        split = count - index
        np.remainder(tensor.data[index:], columns.p[:split], out=data[:split])
        np.remainder(tensor.data[:index], columns.p[split:], out=data[split:])
        out = NumpyTensor(self, tensor.primes, tensor.n, data, {})
        sources = [(row + index) % count for row in range(count)]
        exact = [
            row
            for row, source in enumerate(sources)
            if source in tensor.big or tensor.primes[row] >= STORAGE_LIMIT
        ]
        if exact:
            # A big source row, or a target prime at or above the storage
            # limit: the counted per-prime fallback, one row at a time.
            self._count_fallback(len(exact))
            rows = self._fallback._digit_rows(
                [self._extract_rows(tensor, [sources[row]])[0] for row in exact],
                [tensor.primes[row] for row in exact],
            )
            for row, values in zip(exact, rows):
                self._store_rows(out, [row], [values], tensor.primes[row])
        return out

    def mod_switch_drop_last(
        self, tensor: ResidueTensor, plaintext_modulus: int
    ) -> NumpyTensor:
        self._check_owned(tensor)
        if tensor.count < 2:
            raise ValueError("cannot modulus-switch below a single prime")
        primes = tensor.primes
        t = plaintext_modulus
        if tensor.big:
            self._count_fallback(tensor.count)
            rows = self._extract_rows(tensor, range(tensor.count))
            switched = self._fallback._mod_switch_rows(rows, primes, t)
            return self._stored(primes[:-1], tensor.n, switched)
        rest, q_last = primes[:-1], primes[-1]
        correction = self._correction(tensor.data[-1], q_last, t, rest)
        p = np.asarray(rest, dtype=np.uint64).reshape(-1, 1)
        total = tensor.data[:-1] + correction
        value = np.minimum(total, total - p)
        q_inv = [pow(q_last % prime, -1, prime) for prime in rest]
        if max(primes) < MUL_VECTORIZED_LIMIT:
            # value and q^{-1} are below 2^31: the product is exact in uint64.
            q_inv_column = np.asarray(q_inv, dtype=np.uint64).reshape(-1, 1)
            data = value * q_inv_column % p
        else:
            data = wideops.scalar_mulmod(value, q_inv, rest)
        return NumpyTensor(self, rest, tensor.n, data, {})

    def mod_switch_correction(
        self, tensor: ResidueTensor, plaintext_modulus: int, primes: Sequence[int]
    ) -> NumpyTensor:
        self._check_owned(tensor)
        if tensor.count != 1:
            raise ValueError("a modulus-switch correction reads exactly one row")
        primes = tuple(primes)
        q_last = tensor.primes[0]
        if tensor.big or max(primes) >= STORAGE_LIMIT:
            self._count_fallback(len(primes))
            dropped = self._extract_rows(tensor, [0])[0]
            rows = self._fallback._correction_rows(
                dropped, q_last, plaintext_modulus, primes
            )
            return self._stored(primes, tensor.n, rows)
        data = self._correction(tensor.data[0], q_last, plaintext_modulus, primes)
        return NumpyTensor(self, primes, tensor.n, data, {})

    def _stored(self, primes, n: int, rows) -> NumpyTensor:
        """A tensor holding exact Python ``rows`` (the counted fallback's output)."""
        data = np.zeros((len(primes), n), dtype=np.uint64)
        out = NumpyTensor(self, primes, n, data, {})
        for j, (row, p) in enumerate(zip(rows, primes)):
            self._store_rows(out, [j], [row], p)
        return out

    @staticmethod
    def _correction(dropped: np.ndarray, q_last: int, t: int, primes) -> np.ndarray:
        """``t*u_c mod p`` for every prime of ``primes``: the switch's correction.

        ``u = -w * t^{-1} mod q_last`` for the dropped row ``w``, and ``u_c``
        its centred representative.  Bit-for-bit with
        :meth:`ScalarBackend._correction_rows`: every result is fully
        reduced.  Below 2^31 every quantity fits signed int64
        (``w * t_inv < 2^62``, ``|t * u_c| < 2^61``).  Above, the digit ``u``
        stays unsigned and its centred sign is carried as a mask: for
        centred-negative digits ``t * u_c = t*u - t*q_last`` is applied as
        one extra reduced subtraction mod ``p``, and every product runs
        :func:`repro.backends.wideops.scalar_mulmod` against per-row columns
        (exact for arbitrary uint64 multiplicands: ``u`` may exceed ``p``).
        """
        t_inv = pow(t, -1, q_last)
        if t < MUL_VECTORIZED_LIMIT and max(q_last, *primes) < MUL_VECTORIZED_LIMIT:
            w = dropped.astype(np.int64)
            u = (q_last - (w * np.int64(t_inv)) % q_last) % q_last
            u_c = np.where(u > q_last // 2, u - q_last, u)
            p = np.asarray(primes, dtype=np.int64).reshape(-1, 1)
            return (np.int64(t) * u_c % p).astype(np.uint64)
        q64 = np.uint64(q_last)
        product = wideops.scalar_mulmod(dropped, t_inv, q_last)
        u = q64 - product  # in [1, q_last]; min() maps the q_last case to 0
        u = np.minimum(u, u - q64)
        negative = u > np.uint64(q_last // 2)
        p = np.asarray(primes, dtype=np.uint64).reshape(-1, 1)
        correction = wideops.scalar_mulmod(u, t, primes)
        tq = np.asarray(
            [(t % prime) * (q_last % prime) % prime for prime in primes],
            dtype=np.uint64,
        ).reshape(-1, 1)
        shifted = correction + (p - tq)
        return np.where(negative, np.minimum(shifted, shifted - p), correction)

    # -- validation ------------------------------------------------------------
    def _check_owned(self, tensor: ResidueTensor) -> None:
        super()._check_owned(tensor)
        if not isinstance(tensor, NumpyTensor):  # pragma: no cover - defensive
            raise ValueError("NumpyBackend operates on NumpyTensor handles only")
