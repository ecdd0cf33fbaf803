"""Spin-energy entanglement simulator for a resonant spin-echo beamline.

The package models a polarized neutron beam passing a spin-phase coil and two
rf flippers, producing the characteristic intensity beat at the detector; it
simulates counting experiments over (coil current x detector offset) scans
and reduces them to the CHSH witness with propagated uncertainties.

Layers:

* :mod:`miezesim.quantum` — two-qubit spin/energy states, projectors, CHSH.
* :mod:`miezesim.beamline` — instrument settings to phases and ideal signal.
* :mod:`miezesim.wavepacket` — finite-coherence k-space packet model.
* :mod:`miezesim.synth` — Poisson-sampled synthetic scans and CSV I/O.
* :mod:`miezesim.analysis` — cosine fits, correlations, witness, bootstrap.
* :mod:`miezesim.config` / :mod:`miezesim.cli` — run configs and subcommands.
"""

from . import analysis, beamline, config, constants, errors, quantum, synth, wavepacket
from .analysis import *  # noqa: F403
from .beamline import *  # noqa: F403
from .config import *  # noqa: F403
from .constants import *  # noqa: F403
from .errors import *  # noqa: F403
from .quantum import *  # noqa: F403
from .synth import *  # noqa: F403
from .wavepacket import *  # noqa: F403

__version__ = "0.1.0"

# The public names are those of the layer modules, each listed once, in its module.
__all__ = ["__version__"] + [
    name
    for layer in (constants, errors, quantum, beamline, wavepacket, synth, analysis, config)
    for name in layer.__all__
]
