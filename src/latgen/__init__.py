"""Exact lattice-generation probabilities.

Library layout:

* ``exactmat``   -- exact integer kernels on plain column lists: SNF
                    with transforms, determinants, adjugates,
                    unimodularity
* ``lattice``    -- full-rank lattices, covering-radius bounds, the
                    half-open cell (one box, membership test and
                    enumerator for windows [0, B)^n, each passed as its
                    bound B) and hyperplane counts; lattice points
                    travel as integer basis coordinates
* ``bounds``     -- certified enclosures for every closed-form constant
* ``groupgen``   -- finite abelian groups and generation probabilities
* ``sampling``   -- reproducible counter-based RNG, random parallelepipeds
                    with their rejection-free coset sampler (Smith-form
                    quotient), and the window sampler, which rejects
                    from the box of a half-open cell
* ``experiments``-- the Monte Carlo harness and CSV reports behind the
                    ``latgen`` CLI

numpy is imported only by the code that runs on it, the coset sampler's
int64 engine (``latgen unimodular``).  A worker pool's parent imports it,
and ``multiprocessing``, just before forking, so the workers share it.
"""

__version__ = "0.1.0"

from .enclosure import Enclosure
from .lattice import LatticeBasis

__all__ = [
    "Enclosure",
    "LatticeBasis",
    "__version__",
]
