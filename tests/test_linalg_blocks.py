"""Unit tests for row-block partitioning."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.linalg import (
    PartitionBlock,
    RowBlock,
    block_nbytes,
    iter_blocks,
    partition_rows,
    stack_blocks,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_partition_covers_all_rows_dense(rng):
    matrix = rng.normal(size=(17, 5))
    blocks = partition_rows(matrix, 4)
    assert sum(block.n_rows for block in blocks) == 17
    assert blocks[0].start == 0
    assert blocks[-1].stop == 17


def test_partition_round_trip_dense(rng):
    matrix = rng.normal(size=(23, 4))
    restored = stack_blocks(partition_rows(matrix, 5))
    np.testing.assert_allclose(restored, matrix)


def test_partition_round_trip_sparse(rng):
    matrix = sp.random(40, 12, density=0.2, random_state=3, format="csr")
    restored = stack_blocks(partition_rows(matrix, 7))
    assert (restored != matrix).nnz == 0


def test_partition_more_partitions_than_rows(rng):
    matrix = rng.normal(size=(3, 2))
    blocks = partition_rows(matrix, 10)
    assert len(blocks) == 3
    assert all(block.n_rows == 1 for block in blocks)


def test_partition_rejects_bad_args(rng):
    with pytest.raises(ShapeError):
        partition_rows(rng.normal(size=(3, 2)), 0)
    with pytest.raises(ShapeError):
        partition_rows(np.empty((0, 4)), 2)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize(
    "n_rows,partitions,records",
    [(64, 4, 8), (90, 4, 6), (7, 3, 4), (100, 7, 3), (5, 8, 2), (1000, 49, 16)],
)
def test_partition_blocks_group_the_fine_records(rng, sparse, n_rows, partitions, records):
    # Each partition block covers exactly the records SparkContext.parallelize
    # would group into that partition, and yields them back bitwise.
    from repro.engine.spark.context import SparkContext

    matrix = rng.normal(size=(n_rows, 6))
    matrix[rng.random(matrix.shape) < 0.6] = 0.0
    if sparse:
        matrix = sp.csr_matrix(matrix)
    fine = partition_rows(matrix, partitions * records)
    grouped = SparkContext().parallelize(fine, partitions).glom().collect()
    blocks = partition_rows(matrix, partitions, records)
    assert all(isinstance(block, PartitionBlock) for block in blocks)
    assert len(blocks) == len(grouped)
    for block, group in zip(blocks, grouped):
        assert (block.start, block.stop) == (group[0].start, group[-1].stop)
        assert block.record_starts == tuple(record.start for record in group)
        for (start, rows), record in zip(block.records(), group, strict=True):
            assert start == record.start
            if sparse:
                for part in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(rows, part), getattr(record.data, part))
            else:
                assert np.array_equal(rows, record.data)


def test_partition_blocks_reject_bad_record_counts(rng):
    with pytest.raises(ShapeError):
        partition_rows(rng.normal(size=(3, 2)), 2, 0)


def test_stack_rejects_gaps(rng):
    matrix = rng.normal(size=(10, 2))
    blocks = partition_rows(matrix, 5)
    del blocks[2]
    with pytest.raises(ShapeError):
        stack_blocks(blocks)


def test_stack_rejects_empty():
    with pytest.raises(ShapeError):
        stack_blocks([])


def test_iter_blocks_sorts_by_start(rng):
    matrix = rng.normal(size=(9, 2))
    blocks = partition_rows(matrix, 3)
    shuffled = [blocks[2], blocks[0], blocks[1]]
    assert [b.start for b in iter_blocks(shuffled)] == [b.start for b in blocks]


def test_block_nbytes_sparse_counts_index_structures():
    matrix = sp.random(30, 30, density=0.1, random_state=0, format="csr")
    expected = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    assert block_nbytes(matrix) == expected


def test_block_nbytes_dense():
    matrix = np.zeros((4, 8))
    assert block_nbytes(matrix) == matrix.nbytes


def test_densified_preserves_values():
    matrix = sp.random(6, 5, density=0.4, random_state=1, format="csr")
    block = RowBlock(0, matrix)
    dense = block.densified()
    assert not dense.is_sparse
    np.testing.assert_allclose(dense.data, matrix.todense())


def test_row_block_properties():
    block = RowBlock(10, np.ones((4, 6)))
    assert block.n_rows == 4
    assert block.n_cols == 6
    assert block.stop == 14
    assert not block.is_sparse
