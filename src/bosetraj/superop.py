"""Density-matrix maps as sparse matrices acting on vec(rho) = rho.ravel(),
for which vec(A rho B) = kron(A, B^T) vec(rho).  The mean-field site and
the chain sector share this code.
"""

import scipy.sparse as sp


def sandwich(A, B):
    """rho -> A rho B."""
    return sp.kron(A, B.T, format="csr")


def anticommutator(X):
    """rho -> X rho + rho X."""
    eye = sp.identity(X.shape[0])
    return sandwich(X, eye) + sandwich(eye, X)


def dissipator(b):
    """D[b] rho = b rho b† - (b†b rho + rho b†b) / 2."""
    bd = b.conj().T
    return sandwich(b, bd) - 0.5 * anticommutator(bd @ b)
