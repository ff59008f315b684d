"""Analog joint source-channel codes from curves on flat torus layers.

A real value in [0, 1) is encoded onto a set of closed curves, one per flat
torus layer of the sphere S^(2N-1), transmitted over an AWGN channel, and
decoded in two stages (layer, then curve).  The package covers the lattice
machinery behind curve design, the layer codebooks, the codec, and a
reproducible Monte Carlo harness.
"""

__version__ = "0.1.0"

from .torus import *  # noqa: F401,F403
from .lattices import *  # noqa: F401,F403
from .curves import *  # noqa: F401,F403
from .layers import *  # noqa: F401,F403
from .codec import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
