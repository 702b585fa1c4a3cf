"""Mutualistic service matching, fractal community trees, and
knowledge-diffusion resilience experiments.

The package root re-exports nothing: import from the defining modules
(``fso.taxonomy``, ``fso.descriptions``, ``fso.mutualism``,
``fso.community``, ``fso.fractal``, ``fso.diffusion``), so that a command
loads only the layers it uses.
"""
