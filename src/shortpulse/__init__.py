"""Pseudospectral solver and verification harness for the equation
u_tx = u + (u^3)_xx on a large periodic box.

The package provides real fields and their snapshots, each holding u and
its rfft, from which every diagnostic starts; smooth dyadic band
decompositions; an integrating-factor RK4 time stepper, exact on the linear
flow, with the cubic dealiased by padding on an active band of modes;
weighted-norm diagnostics; moving wave-packet probes of the long-time
asymptotics; a scan of a frequency-localized inequality family; and a CLI
tying them together.
"""

__version__ = "0.1.0"
