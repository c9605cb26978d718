"""Laboratory for Bose gases in Poisson point disorder.

Exact spectra of the one-particle Hamiltonian with a wall at every disorder
point, exact canonical occupations of the ideal gas on top of them, and the
closed-form bounds and scaling diagnostics that govern when the condensate
survives.  The package exports each module's __all__.
"""

from .disorder import *
from .spectrum import *
from .thermo import *
from .bounds import *
from .lab import *

__version__ = "0.1.0"
