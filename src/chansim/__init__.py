"""Stochastic channel-model simulations for massive MIMO and XL-MIMO.

Correlation-based and geometry-based spatial correlation models, a
non-stationary XL-MIMO channel generator with visibility regions, linear
precoding (CB/ZF), capacity and SINR metrics, and a seeded Monte Carlo
sweep harness with CSV output.  Import names from their submodules.
"""

__version__ = "0.1.0"
