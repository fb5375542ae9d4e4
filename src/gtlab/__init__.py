"""Numerical laboratory for relaxation-driven decay on the 1-D torus.

Simulates the 2- and 3-velocity Goldstein-Taylor systems, evaluates twisted
entropy functionals along trajectories, computes the theoretical decay rates
(sharp constant-sigma rates, perturbative rates for variable sigma, the
weighted-Poincare improvement, and the telegrapher-based optimal rate), and
cross-validates observed against predicted exponential decay.
"""

__version__ = "0.1.0"
