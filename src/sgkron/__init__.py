"""Stochastic Galerkin solver toolkit with truncation preconditioners.

Builds Kronecker-structured Galerkin systems for parametric diffusion
problems (affine and lognormal coefficient expansions), preconditions
them with truncation / symmetric block Gauss-Seidel / mean-based /
Kronecker-product strategies, solves with PCG, and verifies the spectral
equivalence bounds that explain the observed iteration counts.  The Python
API is the submodules (``sgkron.kronsys``, ``sgkron.precond``, ...).
"""

__version__ = "0.1.0"
