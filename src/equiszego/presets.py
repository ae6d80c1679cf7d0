"""The weight systems of the two worked examples, run by `equi-szego example`."""

import numpy as np

from .actions import WeightSystem


def p1_weight_system() -> WeightSystem:
    """Projective line with the two commuting circle actions
    (weights (1,-1) fixed block, (1,2) scaled block)."""
    return WeightSystem(n=1, W_G=np.array([[1, -1]]), W_T=np.array([[1, 2]]))


def p2_weight_system() -> WeightSystem:
    """Projective plane with a two-torus fixed block (weights (1,-1,0) and
    (0,1,-1)) and the (1,2,3) scaled circle."""
    return WeightSystem(
        n=2, W_G=np.array([[1, -1, 0], [0, 1, -1]]), W_T=np.array([[1, 2, 3]])
    )


PRESETS = {
    "p1": p1_weight_system,
    "p2": p2_weight_system,
}
