"""The sPCA MapReduce jobs of Section 4.1.

Input records are ``(start_row, block)`` pairs where *block* is a CSR or
dense row block.  Each input split is the
:class:`~repro.linalg.blocks.PartitionBlock` the backend laid out at load:
the combining mappers map its rows in one call, and the per-record paths
iterate its records.  Small matrices (Ym, CM, Xm, C) travel in the job
configuration -- the simulator's stand-in for Hadoop's DistributedCache.

The YtX mapper demonstrates the paper's *stateful combiner*: instead of
emitting a dense partial matrix per input record (which would swamp the
combiners -- the failure mode the paper measures in Mahout's Bt job), it
keeps in-memory partial sums ``XtX-p``/``YtX-p`` across its whole split and
writes them once from ``cleanup``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.engine.mapreduce.api import Mapper, Reducer
from repro.jobs.backends import KERNEL_OPS
from repro.linalg.stats import sample_rows

KEY_SUMS = "mean/sums"
KEY_COUNT = "mean/count"
KEY_FNORM = "fnorm"
KEY_YTX = "YtX"
KEY_YTX_DATA = "YtX/data"
KEY_XSUM = "YtX/xsum"
KEY_XTX = "XtX"
KEY_SS3 = "ss3"
KEY_RESIDUAL = "error/residual"
KEY_MAGNITUDE = "error/magnitude"


class MatrixSumReducer(Reducer):
    """Sums numpy partials per key (works as combiner and reducer)."""

    def reduce(self, key, values, ctx):
        total = values[0]
        for value in values[1:]:
            total = total + value
        yield key, total


class _BlockMapper(Mapper):
    """A combining mapper: one :meth:`map` call over the split's whole block.

    Its partials add across rows, so mapping the block's rows at once emits
    the same records from ``cleanup`` as mapping record by record.
    """

    def map_batch(self, split, ctx):
        return list(self.map(split.start, split.value, ctx))


class MeanMapper(_BlockMapper):
    """meanJob: per-split column sums and row counts, emitted from cleanup."""

    def setup(self, ctx):
        self.sums = None
        self.count = 0

    def map(self, key, value, ctx):
        sums, rows = KERNEL_OPS.sums(value)
        self.sums = sums if self.sums is None else self.sums + sums
        self.count += rows
        return ()

    def cleanup(self, ctx):
        if self.sums is not None:
            yield KEY_SUMS, self.sums
            yield KEY_COUNT, self.count


class FnormMapper(_BlockMapper):
    """FnormJob: per-split share of ||Yc||_F^2.

    Config: ``mean`` (Ym), ``efficient`` (Algorithm 3 vs Algorithm 2).
    """

    def setup(self, ctx):
        self.total = 0.0

    def map(self, key, value, ctx):
        self.total += KERNEL_OPS.frobenius(
            value, ctx.config["mean"], ctx.config["efficient"]
        )
        return ()

    def cleanup(self, ctx):
        yield KEY_FNORM, self.total


class YtXMapper(_BlockMapper):
    """The consolidated YtXJob mapper with a stateful combiner.

    Config: ``mean``, ``projector`` (CM), ``latent_mean`` (Xm),
    ``mean_propagation``.  Input values are either plain Y blocks or, in the
    materialized-X ablation, ``(y_block, x_block)`` pairs.

    With mean propagation the mapper ships the *sparse* data product
    ``Y_blk' X_blk`` plus a small d-vector of latent column sums; the driver
    applies the dense mean correction ``Ym (x) colsum(X)`` once.  This keeps
    mapper output proportional to the block's non-zero columns -- the reason
    sPCA's mapper output stays moderate where Mahout's explodes
    (Section 5.2).
    """

    def setup(self, ctx):
        self.ytx_partial = None
        self.xsum_partial = None
        self.xtx_partial = None

    def map(self, key, value, ctx):
        block, latent = _split_value(value)
        config = ctx.config
        mean_prop = config["mean_propagation"]
        if latent is None:
            latent = KERNEL_OPS.latent(
                block, config["mean"], config["projector"],
                config["latent_mean"], mean_prop,
            )
        if mean_prop and sp.issparse(block):
            ytx = (block.T @ sp.csr_matrix(latent)).tocsr()
            self.xsum_partial = (
                latent.sum(axis=0)
                if self.xsum_partial is None
                else self.xsum_partial + latent.sum(axis=0)
            )
        else:
            ytx = KERNEL_OPS.ytx_xtx(
                block, config["mean"], config["projector"],
                config["latent_mean"], mean_prop, latent=latent,
            )[0]
        xtx = latent.T @ latent
        ctx.increment("ytx/rows", block.shape[0])
        self.ytx_partial = ytx if self.ytx_partial is None else self.ytx_partial + ytx
        self.xtx_partial = xtx if self.xtx_partial is None else self.xtx_partial + xtx
        return ()

    def cleanup(self, ctx):
        if self.ytx_partial is None:
            return
        if self.xsum_partial is not None:
            partial = self.ytx_partial
            if sp.issparse(partial):
                dense_bytes = partial.shape[0] * partial.shape[1] * 8
                sparse_bytes = (
                    partial.data.nbytes + partial.indices.nbytes + partial.indptr.nbytes
                )
                if sparse_bytes >= dense_bytes:
                    # Saturated split: dense is the smaller encoding.
                    partial = np.asarray(partial.todense())
            yield KEY_YTX_DATA, partial
            yield KEY_XSUM, self.xsum_partial
        else:
            yield KEY_YTX, self.ytx_partial
        yield KEY_XTX, self.xtx_partial


class NaiveYtXMapper(YtXMapper):
    """Ablation of the stateful combiner: one dense partial per record.

    This is how a straightforward port would behave -- and why Mahout's
    mappers produced 4 TB of output on the Tweets dataset (Section 5.2).
    """

    # Per-record emission is the entire point of this ablation: it models
    # the pre-optimization dataflow that YtXMapper's cleanup combiner fixes.
    def map(self, key, value, ctx):  # repro-lint: disable=DF004
        block, latent = _split_value(value)
        ytx, xtx = KERNEL_OPS.ytx_xtx(
            block,
            ctx.config["mean"],
            ctx.config["projector"],
            ctx.config["latent_mean"],
            ctx.config["mean_propagation"],
            latent=latent,
        )
        yield KEY_YTX, ytx
        yield KEY_XTX, xtx

    # Mapping the block whole would silently reinstate the combiner this
    # ablation removes; keep the naive per-record dataflow under batching.
    map_batch = Mapper.map_batch


class XMaterializeMapper(Mapper):
    """Ablation of X recomputation: write the latent matrix X to HDFS.

    Map-only job whose output -- the N x d matrix X in blocks -- is exactly
    the intermediate data sPCA's redundant-recomputation design avoids
    (Section 3.2: "nearly 500 GB of intermediate data").
    """

    def map(self, key, value, ctx):
        latent = KERNEL_OPS.latent(
            value,
            ctx.config["mean"],
            ctx.config["projector"],
            ctx.config["latent_mean"],
            ctx.config["mean_propagation"],
        )
        yield key, latent


class SS3Mapper(_BlockMapper):
    """ss3Job: per-split share of ``sum_n X_n * C' * Yc_n'``.

    Config adds ``components`` (the freshly updated C).
    """

    def setup(self, ctx):
        self.total = 0.0

    def map(self, key, value, ctx):
        block, latent = _split_value(value)
        self.total += KERNEL_OPS.ss3(
            block,
            ctx.config["mean"],
            ctx.config["projector"],
            ctx.config["latent_mean"],
            ctx.config["components"],
            ctx.config["mean_propagation"],
            latent=latent,
        )
        return ()

    def cleanup(self, ctx):
        yield KEY_SS3, self.total


class ErrorMapper(_BlockMapper):
    """Reconstruction-error job over a per-task row sample.

    Config: ``mean``, ``components``, ``ls_projector``, ``sample_fraction``,
    ``seed``, ``mean_propagation``.
    """

    def setup(self, ctx):
        self.residual = None
        self.magnitude = None

    def map(self, key, value, ctx):
        block = value
        fraction = ctx.config["sample_fraction"]
        if fraction < 1.0:
            rng = np.random.default_rng((ctx.config["seed"], ctx.task_id, key))
            block = sample_rows(block, fraction, rng)
        residual, magnitude = KERNEL_OPS.error_parts(
            block,
            ctx.config["mean"],
            ctx.config["components"],
            ctx.config["ls_projector"],
            ctx.config["mean_propagation"],
        )
        self.residual = residual if self.residual is None else self.residual + residual
        self.magnitude = magnitude if self.magnitude is None else self.magnitude + magnitude
        return ()

    def map_batch(self, split, ctx):
        if ctx.config["sample_fraction"] < 1.0:
            # Row sampling is seeded per record key; batching would change
            # which rows get sampled, so keep the per-record path.
            return Mapper.map_batch(self, split, ctx)
        return super().map_batch(split, ctx)

    def cleanup(self, ctx):
        if self.residual is not None:
            yield KEY_RESIDUAL, self.residual
            yield KEY_MAGNITUDE, self.magnitude


def _split_value(value):
    """Input values are Y blocks, or (Y block, X block) pairs in ablation."""
    if isinstance(value, tuple):
        return value
    return value, None
