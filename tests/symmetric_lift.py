"""The symmetric lift of a rectangular matrix and its explicit eigenbasis.

No result path of specvar forms the lift; it is the independent
reference that the SVD-basis divided differences are checked against
(``test_sv_calculus.TestLiftReference`` and ``test_matrix_core.TestLift``).
"""

import numpy as np

from specvar.matrix_core import SvdDecomposition, as_matrix, require_tall


def lift(X):
    """Symmetric lift [[0, X], [X^T, 0]] of order m + n.

    Its ordered spectrum is (sigma(X), 0 repeated m-n times, -sigma(X)
    reversed).
    """
    X = require_tall(as_matrix(X))
    m, n = X.shape
    B = np.zeros((m + n, m + n))
    B[:m, m:] = X
    B[m:, :m] = X.T
    return B


def lift_eigenbasis(svd: SvdDecomposition):
    """Explicit orthonormal eigenbasis of lift(X) built from an SVD of X.

    Returns (P, d) where the columns of P are eigenvectors of lift(X) and
    d their eigenvalues, laid out as (sigma_1..sigma_n, 0 x (m-n),
    -sigma_1..-sigma_n).  Column k < n is (u_k; v_k)/sqrt(2), the middle
    block is (u_k; 0) over the trailing columns of U, and the final block
    is (-u_k; v_k)/sqrt(2).  In this basis lift(H) has the entries
    Sym(U^T H V), -Skw(U^T H V) and the trailing rows of U^T H V over
    sqrt(2), so its resolvent at sigma_k is the SVD-basis divided
    difference with weights 1/(sigma_k - sigma_j), 1/(sigma_k + sigma_j)
    and 1/sigma_k that ``sv_calculus`` evaluates without forming P.
    """
    U, s, V = svd.U, svd.sigma, svd.V
    m, n = svd.shape
    P = np.zeros((m + n, m + n))
    d = np.zeros(m + n)
    c = 1.0 / np.sqrt(2.0)
    P[:m, :n] = c * U[:, :n]
    P[m:, :n] = c * V
    d[:n] = s
    P[:m, n:m] = U[:, n:]
    P[:m, m:] = -c * U[:, :n]
    P[m:, m:] = c * V
    d[m:] = -s
    return P, d
