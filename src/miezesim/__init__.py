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

``import miezesim`` loads no layer.  The first read of a public name, of
``__all__`` or of ``dir(miezesim)`` imports every layer, numpy with them, and
binds all the public names here, so ``miezesim --version`` answers without
numpy.
"""

__version__ = "0.1.0"

_LAYERS = ("constants", "errors", "quantum", "beamline", "wavepacket", "synth", "analysis",
           "config")


def _bind_layers() -> None:
    """Import the layers and bind their public names and ``__all__`` here, once.

    The public names are those of the layer modules, each listed once, in its module.
    A name already bound here, such as one a test patched, is kept.
    """
    namespace = globals()
    if "__all__" not in namespace:
        from importlib import import_module

        names = ["__version__"]
        for layer in _LAYERS:
            module = import_module(f"{__name__}.{layer}")
            for name in module.__all__:
                namespace.setdefault(name, getattr(module, name))
            names += module.__all__
        namespace["__all__"] = names


def __getattr__(name: str):
    # Tools probe dunder names such as __wrapped__ and __test__; none of them loads a layer.
    if name.startswith("__") and name.endswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_layers()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list:
    _bind_layers()
    return sorted(globals())
