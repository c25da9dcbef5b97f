"""numpy's kernels without numpy's Python layers, for the solver.

A solve is a few hundred LAPACK calls on K <= 6 matrices, so numpy's
per-call overhead, not arithmetic, sets its cost. The solver therefore
calls numpy.linalg's own LAPACK gufuncs (the private
`numpy.linalg._umath_linalg`) without numpy.linalg's wrapper, numpy's C
einsum (the private `numpy._core.multiarray.c_einsum`, what `np.einsum`
calls without `optimize`), and the ufunc reductions that `ndarray.sum`,
`.all` and `.max` call, without numpy/_core/_methods.py (each call passes
axis None, as those do). This is the only module of the package that
names a private numpy attribute. Every array the solver passes is
float64, so each gufunc runs the loop numpy.linalg picks with its
signature "d->d" (a float32 array would run the float32 loop, where
numpy.linalg casts it), and the kernels give numpy's results bitwise.
Tested with numpy 2.4.6.

A gufunc reports a LAPACK failure as an all-NaN output and the
floating-point invalid flag, not as LinAlgError. Each kernel keeps one
rule for it:

* `cholesky` gives None for a matrix that is not finite or not positive
  definite (of a finite matrix, a NaN factor is LAPACK's failure);
* `solve` and `eigh` hand a NaN answer back to numpy.linalg, which raises
  LinAlgError exactly where LAPACK failed, and otherwise returns what
  numpy returns for a NaN input;
* `inv` and `solve_stack` are only called on matrices LAPACK cannot fail
  on (a Cholesky factor; Sigma + Sigma_N_j with Sigma positive definite),
  as each call site says.

The invalid flag is numpy's to report. Where numpy.linalg only raises, a
failed `cholesky`, `solve` or `eigh` also emits `RuntimeWarning: invalid
value encountered in cholesky_lo` (`solve1`, `eigh_lo`) before it gives
None or raises, unless the flag is ignored. `solve_bound` runs inside
`np.errstate(invalid="ignore")`; callers outside a solve wrap their calls
in such an errstate.
"""

import math

import numpy as np
from numpy._core.multiarray import c_einsum as einsum
from numpy.linalg import _umath_linalg

inv = _umath_linalg.inv  # inv(a, out=None): the inverse of each matrix of a stack
solve_stack = _umath_linalg.solve  # solve_stack(a, b): a^-1 b for stacks of matrices
sum_, all_, max_ = np.add.reduce, np.logical_and.reduce, np.maximum.reduce


def cholesky(m):
    """The lower Cholesky factor of a finite positive definite m, else None."""
    if not all_(np.isfinite(m), None):
        return None
    c = _umath_linalg.cholesky_lo(m)
    return None if math.isnan(c[0, 0]) else c


def solve(a, b):
    """np.linalg.solve(a, b) for a vector b."""
    x = _umath_linalg.solve1(a, b)
    return np.linalg.solve(a, b) if math.isnan(x[0]) else x


def eigh(a):
    """np.linalg.eigh(a)."""
    w, v = _umath_linalg.eigh_lo(a)
    return np.linalg.eigh(a) if math.isnan(w[0]) else (w, v)


def norm(x):
    """np.linalg.norm(x), the Frobenius norm, summed as numpy sums it."""
    x = x.ravel("K")
    return np.sqrt(x.dot(x))
