"""Row-partitioned matrix blocks.

Both simulated engines distribute the input matrix ``Y`` row-wise, exactly as
HDFS splits and Spark partitions do in the paper's implementations.  A
:class:`RowBlock` is the record type that flows through mappers and RDD
partitions: a contiguous range of rows held either as a ``scipy.sparse``
CSR matrix (the sparse datasets: Tweets, Bio-Text) or as a dense
``numpy.ndarray`` (the dense datasets: Diabetes, Images).

Keeping blocks -- rather than individual rows -- as the distribution unit lets
the simulated workers use vectorized NumPy/SciPy kernels while preserving the
paper's dataflow (what is shuffled, what is broadcast, what is materialized).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError

Matrix = Union[np.ndarray, sp.spmatrix]


def is_sparse(matrix: Matrix) -> bool:
    """Return True when *matrix* is a scipy sparse matrix."""
    return sp.issparse(matrix)


@dataclass(frozen=True)
class RowBlock:
    """A contiguous horizontal slice of a distributed matrix.

    Attributes:
        start: global index of the first row in this block.
        data: the rows themselves, CSR or dense, shape ``(n_rows, D)``.
    """

    start: int
    data: Matrix

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    @property
    def stop(self) -> int:
        return self.start + self.n_rows

    @property
    def is_sparse(self) -> bool:
        return is_sparse(self.data)

    def nbytes(self) -> int:
        """Serialized size of the block payload in bytes."""
        return block_nbytes(self.data)

    def densified(self) -> "RowBlock":
        """Return a dense copy of this block (used by ablation paths)."""
        if self.is_sparse:
            return RowBlock(self.start, np.asarray(self.data.todense()))
        return self


@dataclass(frozen=True)
class PartitionBlock(RowBlock):
    """One partition's rows held as a single block, grouping several records.

    The block is laid out once, when the dataset is loaded: a CSR row slice
    of the input, or a view of its dense rows.  It is both a Spark partition
    element and a whole MapReduce input split.  Batched kernels read
    :attr:`data` whole; the per-record paths iterate the block, which yields
    its ``(start, rows)`` records, and ``len()`` counts them.

    Attributes:
        record_starts: global start row of each record, in row order; the
            first is :attr:`start`.
        latent: the materialized-X ablation's latent rows, joined in the
            block's row order, or None.  When set, :attr:`value` and every
            record's value are ``(rows, latent rows)`` pairs.
    """

    record_starts: tuple[int, ...]
    latent: np.ndarray | None = None

    @property
    def value(self) -> "Matrix | tuple[Matrix, np.ndarray]":
        """The whole block as one record value: its rows, or (rows, X rows)."""
        return self.data if self.latent is None else (self.data, self.latent)

    def records(self) -> Iterator[tuple[int, object]]:
        """Yield ``(start, value)`` for each record, as slices of the block."""
        stops = self.record_starts[1:] + (self.stop,)
        for lo, hi in zip(self.record_starts, stops):
            rows = slice(lo - self.start, hi - self.start)
            if self.latent is None:
                yield lo, self.data[rows]
            else:
                yield lo, (self.data[rows], self.latent[rows])

    __iter__ = records

    def __len__(self) -> int:
        return len(self.record_starts)


def block_nbytes(matrix: Matrix) -> int:
    """Bytes needed to serialize *matrix* (data + sparse index structures)."""
    if sp.issparse(matrix):
        csr = matrix.tocsr()
        return int(csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)
    return int(np.asarray(matrix).nbytes)


def _row_bounds(n_rows: int, num_blocks: int) -> np.ndarray:
    """Boundaries of ``min(num_blocks, n_rows)`` near-equal row ranges."""
    return np.linspace(0, n_rows, min(num_blocks, n_rows) + 1, dtype=int)


def partition_rows(
    matrix: Matrix, num_partitions: int, records_per_partition: int | None = None
) -> list[RowBlock]:
    """Split *matrix* into ``num_partitions`` near-equal row blocks.

    The split mirrors how HDFS splits a row-major file: blocks are contiguous
    and sizes differ by at most one row.

    With *records_per_partition*, the rows are first cut into
    ``num_partitions * records_per_partition`` near-equal records -- bitwise
    the blocks ``partition_rows(matrix, num_partitions * records_per_partition)``
    returns -- and each returned :class:`PartitionBlock` holds a run of
    consecutive records as one block.  Runs differ by at most one record, the
    grouping ``SparkContext.parallelize`` gives a list of records.

    Raises:
        ShapeError: if the matrix has no rows, ``num_partitions < 1`` or
            ``records_per_partition < 1``.
    """
    if num_partitions < 1:
        raise ShapeError(f"num_partitions must be >= 1, got {num_partitions}")
    if records_per_partition is not None and records_per_partition < 1:
        raise ShapeError(
            f"records_per_partition must be >= 1, got {records_per_partition}"
        )
    n_rows = matrix.shape[0]
    if n_rows == 0:
        raise ShapeError("cannot partition a matrix with zero rows")
    csr = matrix.tocsr() if sp.issparse(matrix) else np.asarray(matrix)
    if records_per_partition is None:
        boundaries = _row_bounds(n_rows, num_partitions)
        return [
            RowBlock(int(lo), csr[lo:hi])
            for lo, hi in zip(boundaries[:-1], boundaries[1:])
            if hi > lo
        ]
    starts = _row_bounds(n_rows, num_partitions * records_per_partition)
    groups = _row_bounds(len(starts) - 1, num_partitions)
    return [
        PartitionBlock(
            int(starts[lo]),
            csr[starts[lo] : starts[hi]],
            tuple(int(start) for start in starts[lo:hi]),
        )
        for lo, hi in zip(groups[:-1], groups[1:])
        if hi > lo
    ]


def iter_blocks(blocks: Sequence[RowBlock]) -> Iterator[RowBlock]:
    """Iterate blocks in global row order regardless of input order."""
    return iter(sorted(blocks, key=lambda block: block.start))


def stack_blocks(blocks: Sequence[RowBlock]) -> Matrix:
    """Reassemble row blocks into a single matrix (inverse of partition_rows).

    Raises:
        ShapeError: if the blocks do not tile a contiguous row range.
    """
    ordered = list(iter_blocks(blocks))
    if not ordered:
        raise ShapeError("cannot stack an empty block list")
    expected = ordered[0].start
    for block in ordered:
        if block.start != expected:
            raise ShapeError(
                f"blocks are not contiguous: expected row {expected}, got {block.start}"
            )
        expected = block.stop
    if any(block.is_sparse for block in ordered):
        return sp.vstack([sp.csr_matrix(block.data) for block in ordered]).tocsr()
    return np.vstack([np.asarray(block.data) for block in ordered])
