from .kinds import KINDS, ORDER_KINDS, make
from .parallel import (MaskedPSNParams, PSNParams, SlidingPSNParams,
                       build_mask, lambda_schedule, masked_psn_forward,
                       psn_forward, spsn_build_A, spsn_forward)
from .surrogate import heaviside_surrogate, smooth_step
from .trace import SpikeTrace
from .vanilla import VanillaNeuronParams, parallel_no_reset, vanilla_sequence

__all__ = [
    "KINDS", "ORDER_KINDS", "make",
    "heaviside_surrogate", "smooth_step",
    "SpikeTrace",
    "VanillaNeuronParams", "vanilla_sequence", "parallel_no_reset",
    "PSNParams", "MaskedPSNParams", "SlidingPSNParams",
    "psn_forward", "masked_psn_forward", "spsn_forward",
    "build_mask", "lambda_schedule", "spsn_build_A",
]
