"""1D diatomic Vlasov-Poisson system with oscillatory molecular bonds.

A weighted-particle solver for the kinetic density of bonded atom pairs,
the self-consistent step field it generates, characteristic integration
with oscillation-event detection, the a-priori bounds of the underlying
analysis as a certificate that sampled paths are checked against, and
the fixed-point (frozen-field) construction of the solution on short
horizons.  The package republishes each module's public names.
"""

__version__ = "0.1.0"

from .errors import *
from .hooke import *
from .field import *
from .trajectory import *
from .bounds import *
from .datum import *
from .picard import *
from .simulator import *
