"""Front-end substrate: branch direction predictors, BTB and RAS.

Table 1 of the paper specifies a combined bimodal (4k entries) / gshare (4k)
predictor with a 4k-entry selector, a 16-entry return address stack, and a
1k-entry 4-way BTB; fetch stops at the first taken branch in a cycle.
"""

from repro.frontend.direction import (
    BimodalPredictor,
    CombinedPredictor,
    GSharePredictor,
)
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.branch_unit import BranchPrediction, BranchUnit

__all__ = [
    "BimodalPredictor",
    "CombinedPredictor",
    "GSharePredictor",
    "BranchTargetBuffer",
    "ReturnAddressStack",
    "BranchPrediction",
    "BranchUnit",
]
