"""Density-matrix maps as sparse matrices acting on vec(rho) = rho.ravel(),
for which vec(A rho B) = kron(A, B^T) vec(rho), for the mean-field site.
"""

import scipy.sparse as sp


def sandwich(A, B):
    """rho -> A rho B."""
    return sp.kron(A, B.T, format="csr")


def anticommutator(X):
    """rho -> X rho + rho X."""
    eye = sp.identity(X.shape[0])
    return sandwich(X, eye) + sandwich(eye, X)
