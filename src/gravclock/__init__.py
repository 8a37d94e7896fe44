"""Atomic-clock interferometry in weak gravity: Fisher-information toolkit.

Simulates a two-level clock riding an atom through a freely falling or a
trapped Mach-Zehnder interferometer (plus the floored "quantum bouncer"
variant), and quantifies how gravitational time dilation changes what the
setup can learn about the local gravitational acceleration.  Closed-form
quantum/classical Fisher information, an independent parametric engine,
and grid-based brute-force oracles cross-check each other throughout.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    # ``gravclock.airy_ai`` (perfbench's setup step calls it) is looked up
    # on first use, so ``import gravclock`` loads no numpy and the CLI can
    # pin its BLAS threads first; everything else comes from its submodule.
    if name == "airy_ai":
        from .bouncer import airy_ai
        return airy_ai
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
