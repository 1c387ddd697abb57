"""Multi-chain MCMC with state-machine kernels and lockstep cost accounting."""

from .fsm import (
    Block,
    FsmDefinition,
    Locals,
    SharedComputation,
    StepOutcome,
    While,
    bundled_step,
    compile_program,
    step,
)
from .kernels import drmh_kernel, elliptical_kernel, nuts_kernel, slice_kernel
from .lockstep import (
    ChainBatch,
    CostLedger,
    CostParams,
    init_batch,
    run_fsm_batched,
    run_standard_batched,
)
from .prng import RngKey, key, normal_vec, split, uniform
from .targets import (
    TargetModel,
    correlated_mog_target,
    gaussian_target,
    gp_hyperparameter_target,
)

__version__ = "0.1.0"
