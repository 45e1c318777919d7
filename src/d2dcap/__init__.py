"""Distributed channel assignment for D2D cellular networks.

A simulation library for learning channel assignments through noisy
utility samples, with exact small-instance analysis tools: brute-force
optima, stationary distributions of the induced Markov chain, and a
resistance calculus for the low-temperature limit.  The package root holds
only ``__version__``: each public name is imported from its module, as in
``from d2dcap.game import CapGame``, and listed in that module's ``__all__``.
"""

__version__ = "0.1.0"
