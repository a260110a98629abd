"""The one kernel-ops object every sPCA mapper and partition closure calls.

:data:`KERNEL_OPS` bundles the per-block operations of one EM iteration --
column sums, Frobenius share, latent recomputation, YtX/XtX, ss3, the error
parts, and record stacking -- as thin delegates to the functions in
:mod:`repro.jobs.kernels`.  There is exactly one implementation; callers
look each op up on this object at call time, so a test or benchmark can
shadow an op with an instance attribute (for example, to time or count
kernel calls) and every engine sees the substitute.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.jobs import kernels
from repro.linalg.blocks import Matrix


class KernelOps:
    """The per-block kernel operations, delegating to :mod:`repro.jobs.kernels`."""

    def sums(self, block: Matrix):
        return kernels.block_sums(block)

    def frobenius(self, block: Matrix, mean, efficient: bool) -> float:
        return kernels.block_frobenius(block, mean, efficient)

    def latent(self, block, mean, projector, latent_mean, mean_propagation):
        return kernels.block_latent(
            block, mean, projector, latent_mean, mean_propagation
        )

    def ytx_xtx(
        self, block, mean, projector, latent_mean, mean_propagation, latent=None
    ):
        return kernels.block_ytx_xtx(
            block, mean, projector, latent_mean, mean_propagation, latent=latent
        )

    def ss3(
        self,
        block,
        mean,
        projector,
        latent_mean,
        components,
        mean_propagation,
        latent=None,
    ) -> float:
        return kernels.block_ss3(
            block, mean, projector, latent_mean, components,
            mean_propagation, latent=latent,
        )

    def error_parts(self, block, mean, components, ls_projector, mean_propagation):
        return kernels.block_error_parts(
            block, mean, components, ls_projector, mean_propagation
        )

    def stack(self, blocks: list):
        return kernels.stack_blocks(blocks)

    def stack_latents(self, latents: list):
        return kernels.stack_latents(latents)


#: The process-wide kernel-ops object.
KERNEL_OPS = KernelOps()


def resolve_kernel_backend(name: str = "numpy") -> KernelOps:
    """Return :data:`KERNEL_OPS`, the only kernels there are.

    Raises:
        ConfigError: for any *name* other than ``"numpy"``.
    """
    if name != "numpy":
        raise ConfigError(f"unknown kernels {name!r}; the only kernels are 'numpy'")
    return KERNEL_OPS
