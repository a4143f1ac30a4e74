"""Diffusion-model learning toolkit: Bass/SIR simulation, Fisher information,
closed-form estimators, discrete-time MLE fitting, and seeded scaling studies.
"""

__version__ = "0.1.0"

__all__ = [
    "DiffusionState",
    "JumpKind",
    "JumpLedger",
    "ModelParams",
    "ObservationSet",
    "Regime",
    "RngStream",
    "reconstruct_state",
    "validate_params",
    "__version__",
]


def __getattr__(name):
    # The core re-exports load on first use: `import difflim` loads no numpy.
    if name in __all__:
        from . import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
