"""Shifted Renyi information measures on weighted power means.

The shifted order ``r`` relates to the classical Renyi order by
``alpha = r + 1``, which lines the entropy family up with the generalized
power means: ``r = 1`` arithmetic, ``r = 0`` geometric (Shannon),
``r = -1`` harmonic (Hartley), ``r = +inf`` / ``-inf`` min/max entropy.
Everything works on unnormalized mass measures as well, where the whole
spectrum is rigidly displaced by the log of the total mass.
"""

from . import errors, info, means, measures, spectrum
from .errors import *
from .info import *
from .means import *
from .measures import *
from .spectrum import *

__version__ = "0.3.0"

__all__ = [
    *errors.__all__,
    *info.__all__,
    *means.__all__,
    *measures.__all__,
    *spectrum.__all__,
    "__version__",
]
