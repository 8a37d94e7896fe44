"""Atomic-clock interferometry in weak gravity: Fisher-information toolkit.

Simulates a two-level clock riding an atom through a freely falling or a
trapped Mach-Zehnder interferometer (plus the floored "quantum bouncer"
variant), and quantifies how gravitational time dilation changes what the
setup can learn about the local gravitational acceleration.  Closed-form
quantum/classical Fisher information, an independent parametric engine,
and grid-based brute-force oracles cross-check each other throughout.
"""

# perfbench's setup step calls gravclock.airy_ai; everything else is
# imported from its submodule.
from .bouncer import airy_ai

__version__ = "0.1.0"
