"""The engine's LAPACK stacks against scipy's LAPACK wrappers, bit for bit.

``laplace._pos_solve``, ``_factor`` and ``_tri_solve`` call ``dposv``,
``dpotrf`` and ``dtrtrs`` of scipy's OpenBLAS in place on column-major
stacks; ``scipy.linalg.lapack``'s f2py wrappers call the same routines on
Fortran-order copies. Random stacks of every size n from 2 to 49 hold one
matrix that is not bitwise symmetric and, at every third size, one that is
not positive definite (or, for ``dtrtrs``, a singular factor), which must fail
alone with the wrappers' ``info`` in the engine's error text.

``engine_results`` imports no scipy module itself, so a fresh interpreter
can run it under another discovery route of scipy's LAPACK
(``test_imports.py``) before comparing with ``wrapper_results``."""

import numpy as np
import pytest

from tactilab import laplace

SIZES = range(2, 50)


def _cases(seed: int):
    """Per size n: three (n, n) C-ordered matrices, their (n,) right-hand
    sides for ``dposv``, and (n, q) right-hand sides for ``dtrtrs``."""
    rng = np.random.default_rng(seed)
    for n in SIZES:
        mats = []
        for _ in range(3):
            g = rng.standard_normal((n, n))
            mats.append(g @ g.T / n + 0.5 * np.eye(n))
        r, c = rng.integers(1, n), 0
        mats[0][r, c] = np.nextafter(mats[0][r, c], np.inf)  # reads k[r, c], not k[c, r]
        if n % 3 == 0:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eig = np.concatenate([[-0.5], rng.uniform(0.1, 3.0, n - 1)])
            mats[1 + n % 2] = (q * eig) @ q.T
        q = int(rng.integers(1, 6))
        yield n, mats, rng.standard_normal((3, n)), rng.standard_normal((3, n, q))


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def engine_results(seed: int) -> list:
    """(routine, n, item, solution bytes or error) of each item of each
    stack, through the engine's in-place stacks."""
    out = []
    for n, mats, rhs, tri_rhs in _cases(seed):
        stack, solved = np.array([a.T for a in mats]), rhs.copy()
        failed = laplace._pos_solve(stack, solved)
        for j in range(3):
            got = _failure(failed[j]) if j in failed else solved[j].tobytes()
            out.append(("dposv", n, j, got))
        chols = np.array([a.T for a in mats])
        failed = laplace._factor(chols)
        for j in range(3):
            got = _failure(failed[j]) if j in failed else chols[j].T.tobytes(order="F")
            out.append(("dpotrf", n, j, got))
        chols[list(failed)] = np.eye(n)  # solvable stand-ins
        if n % 4 == 0:
            chols[0, 0, 0] = 0.0  # a singular factor
        solved = np.array([b.T for b in tri_rhs])
        try:
            laplace._tri_solve(chols, solved)
            got = [x.T.tobytes(order="F") for x in solved]
        except np.linalg.LinAlgError as exc:
            got = _failure(exc)
        out.append(("dtrtrs", n, None, got))
    return out


def wrapper_results(seed: int) -> list:
    """``engine_results`` through ``scipy.linalg.lapack``, one matrix per
    call, with the engine's error texts."""
    from scipy.linalg import lapack

    out = []
    for n, mats, rhs, tri_rhs in _cases(seed):
        for j, (a, b) in enumerate(zip(mats, rhs)):
            _, x, info = lapack.dposv(a, b, lower=1)
            want = x.tobytes() if info == 0 else (
                f"LinAlgError: {info}-th leading minor of the array is not positive definite"
            )
            out.append(("dposv", n, j, want))
        chols = []
        for j, a in enumerate(mats):
            chol, info = lapack.dpotrf(a, lower=1, clean=1)
            if info == 0:
                out.append(("dpotrf", n, j, chol.tobytes(order="F")))
            else:
                out.append(("dpotrf", n, j, (
                    f"LinAlgError: {info}-th leading minor of the array is not positive definite"
                )))
                chol = np.eye(n)
            chols.append(np.asfortranarray(chol))
        if n % 4 == 0:
            chols[0][0, 0] = 0.0
        want = []
        for chol, b in zip(chols, tri_rhs):
            x, info = lapack.dtrtrs(chol, b, lower=1)
            if info != 0:
                want = f"LinAlgError: singular factor at diagonal {info - 1}"
                break
            want.append(x.tobytes(order="F"))
        out.append(("dtrtrs", n, None, want))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacks_match_scipys_wrappers_bit_for_bit(seed):
    got, want = engine_results(seed), wrapper_results(seed)
    assert [case[:3] for case in got] == [case[:3] for case in want]
    for case, expected in zip(got, want):
        assert case == expected, case[:3]
    failures = [case for case in got if isinstance(case[3], str)]
    assert {routine for routine, *_ in failures} == {"dposv", "dpotrf", "dtrtrs"}


def test_stacks_are_checked_before_lapack_reads_them():
    eye = np.eye(3)[None]
    read_only = np.frombuffer((2 * eye).tobytes()).reshape(1, 3, 3)
    misaligned = np.frombuffer(bytearray(8 * 9 + 1), offset=1).reshape(1, 3, 3)
    misaligned[:] = eye
    calls = [
        lambda: laplace._pos_solve(eye.swapaxes(1, 2), np.ones((1, 3))),  # not C-ordered
        lambda: laplace._factor(eye.astype(np.float32)),
        lambda: laplace._tri_solve(eye, np.ones((1, 3, 2))),  # n = 2 right-hand sides for n = 3
        lambda: laplace._factor(read_only),  # LAPACK would write through a read-only buffer
        lambda: laplace._pos_solve(misaligned, np.ones((1, 3))),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="C-ordered float64 stack"):
            call()
    assert read_only.tobytes() == (2 * eye).tobytes()
