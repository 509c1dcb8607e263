"""The independent references the suite checks the library against, each
written once, on numpy and mpmath alone.

The propagator comes from LAPACK's eigensolver applied to Sx; the noise
kernels from their definitions; the phases' covariance and the numerical
beta from trapezoid quadrature of those kernels; beta and the
averaged-state entropy from 50-digit mpmath; the matrix purity and entropy
from the state's entries and eigenvalues; random test states as normalized
A A+ of a complex Gaussian A; and the oracle's normals from a scalar
Philox4x32-10 and Box-Muller on Python integers and ``math``.  None
of them calls the library or shares its code.  The library works from
``beta_closed`` alone, which is claimed to be the double integral of the
kernel ``autocorrelation``; only this module evaluates that kernel.
"""

import math

import mpmath
import numpy as np

# spin-1 Sx, from its definition: <m+1| S+ |m> = sqrt(2) and Sx = (S+ + S-) / 2
SX = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / np.sqrt(2.0)
_EIGENVALUES, _EIGENVECTORS = np.linalg.eigh(SX)


def unitary(phi) -> np.ndarray:
    """exp(-i phi Sx) as V diag(exp(-i lambda phi)) V+, with V and lambda from
    ``numpy.linalg.eigh``.  phi is a scalar or an array; the result has shape
    phi.shape + (3, 3)."""
    phases = np.exp(-1j * np.multiply.outer(np.asarray(phi, dtype=float), _EIGENVALUES))
    return (_EIGENVECTORS * phases[..., None, :]) @ _EIGENVECTORS.T


def random_state(rng) -> np.ndarray:
    """Random 3x3 density matrix: normalized A A+ for a complex Gaussian A
    drawn from the numpy Generator ``rng``."""
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def autocorrelation(spec, s, s_prime):
    """Covariance K(s, s') of the NoiseSpec ``spec``'s noise at two
    nonnegative times.

    The fgn kernel is genuinely two-argument (nonstationary); the other three
    depend only on u = s - s'.  Accepts scalars or broadcastable arrays.
    """
    s = np.asarray(s, dtype=float)
    sp = np.asarray(s_prime, dtype=float)
    if not (np.all(s >= 0.0) and np.all(sp >= 0.0)):  # nan fails too
        raise ValueError("autocorrelation times must be nonnegative, not nan")
    if spec.kind == "fgn":
        two_h = 2.0 * spec.hurst
        out = 0.5 * (np.abs(sp) ** two_h - np.abs(s - sp) ** two_h + np.abs(s) ** two_h)
    elif spec.kind == "gn":
        u = s - sp
        with np.errstate(over="ignore"):  # far apart the kernel is 0
            out = spec.g * np.exp(-((spec.g * u) ** 2)) / math.sqrt(math.pi)
    elif spec.kind == "ou":
        out = 0.5 * spec.g * np.exp(-spec.g * np.abs(s - sp))
    else:  # pl
        u = np.abs(s - sp)
        with np.errstate(over="ignore"):  # far apart the kernel is 0
            out = (spec.alpha - 1.0) * spec.g / (2.0 * (spec.g * u + 1.0) ** spec.alpha)
    return out if out.ndim else float(out)


def grid_covariance(spec, grid, indices) -> np.ndarray:
    """W^T K W with the BLAS: K is the kernel of the NoiseSpec ``spec`` on
    the whole grid, and W's column k the trapezoid weights of the integral
    from grid[0] to grid[indices[k]]: each panel below that stop adds its
    half-width at both of its ends."""
    kernel = autocorrelation(spec, grid[:, None], grid[None, :])
    stops = np.arange(grid.size)[indices]
    below = np.arange(grid.size - 1)[:, None] < stops
    halves = np.where(below, np.diff(grid)[:, None] / 2.0, 0.0)
    weights = np.zeros((grid.size, stops.size))
    weights[:-1] += halves
    weights[1:] += halves
    return weights.T @ kernel @ weights


def beta_quadrature(spec, tau) -> float:
    """beta of ``spec`` at tau as the 2-D trapezoid of its kernel over
    [0, tau]^2 at 512 and 1024 panels, Richardson-extrapolated.

    The extrapolation cancels the leading h^2 error term, which plain
    trapezoid needs to resolve the |s - s'| kink of the ou/pl kernels; on the
    smooth gn kernel it is simply more accurate.  The fgn kernel is evaluated
    in its two-argument nonstationary form.
    """
    coarse, fine = (
        grid_covariance(spec, np.linspace(0.0, tau, p + 1), [-1])[0, 0] for p in (512, 1024)
    )
    return float((4.0 * fine - coarse) / 3.0)


def digits_below_one(value) -> int:
    """Decimal digits between a positive value and 1 (0 from 1 up, and for 0)."""
    return max(0, -int(mpmath.log10(value))) if value else 0


def beta_exact(spec, tau) -> mpmath.mpf:
    """beta of the NoiseSpec ``spec`` at tau (a float or an mpf) to 50 digits.

    With x = g*tau, each of gn, ou and pl cancels about twice the digits of x
    below 1 (pl's also those of alpha - 2), and pl's 1 + x needs them once
    more, so the working precision adds them.
    """
    with mpmath.workdps(50):
        tau = mpmath.mpf(tau)
        if spec.kind == "fgn":
            c = 2 * mpmath.mpf(spec.hurst) + 2
            return tau**c / c
        g = mpmath.mpf(spec.g)
        x = g * tau
    with mpmath.workdps(50 + 3 * digits_below_one(x) + digits_below_one(spec.alpha - 2)):
        if spec.kind == "gn":
            gb = (mpmath.exp(-x * x) - 1) / mpmath.sqrt(mpmath.pi) + x * mpmath.erf(x)
        elif spec.kind == "ou":
            gb = x + mpmath.exp(-x) - 1
        else:
            a = mpmath.mpf(spec.alpha)
            gb = (x * (a - 2) - 1 + (1 + x) ** (2 - a)) / (a - 2)
        return gb / g


def entropy_exact(s, r=1.0) -> mpmath.mpf:
    """von Neumann entropy of the averaged state at coherence loss s (a float
    or an mpf) from initial_state(r), to 50 digits.

    The eigenvalues are (1 - r)/3 + r (3 +- sqrt(9 - s)) / 6 and (1 - r)/3;
    3 - sqrt(9 - s) cancels the digits of s below 1, so the working precision
    adds them.
    """
    with mpmath.workdps(50 + digits_below_one(s)):
        s, r = mpmath.mpf(s), mpmath.mpf(r)
        root = mpmath.sqrt(9 - s)
        mixed = (1 - r) / 3
        lams = [mixed + r * (3 + root) / 6, mixed + r * (3 - root) / 6, mixed]
        return -sum(lam * mpmath.log(lam) for lam in lams if lam > 0)


def purity(rho) -> float:
    """Tr(rho^2); for Hermitian rho this is the squared Frobenius norm."""
    return float(np.sum(np.abs(rho) ** 2))


def vn_entropy(rho) -> float:
    """-Sum lambda ln lambda over the eigenvalues, with 0 ln 0 := 0."""
    eigs = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    nonzero = eigs[eigs > 0.0]
    return max(float(-np.sum(nonzero * np.log(nonzero))), 0.0)


def philox4x32(counter, key) -> tuple[int, ...]:
    """Philox4x32-10 (Salmon, Moraes, Dror & Shaw, SC11) of four 32-bit
    counter words under two key words, as Python ints."""
    x0, x1, x2, x3 = counter
    k0, k1 = key
    for _ in range(10):
        hi0, lo0 = divmod(0xD2511F53 * x0, 2**32)
        hi1, lo1 = divmod(0xCD9E8D57 * x2, 2**32)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        k0, k1 = (k0 + 0x9E3779B9) % 2**32, (k1 + 0xBB67AE85) % 2**32
    return x0, x1, x2, x3


def normal_pair(seed: int, j: int) -> tuple[float, float]:
    """Normals 2j and 2j + 1 of the oracle's stream for seed: Box-Muller of
    the two uniforms ((w >> 11) + 0.5) / 2**53 from the 64-bit halves w of
    Philox call j, keyed by the seed's low 64 bits, with its high 64 bits
    as the counter's last two words."""
    words = [(seed >> shift) % 2**32 for shift in (0, 32, 64, 96)]
    x = philox4x32((j % 2**32, j >> 32, words[2], words[3]), words[:2])
    u1, u2 = (((lo + 2**32 * hi) // 2**11 + 0.5) / 2**53 for lo, hi in (x[:2], x[2:]))
    r = math.sqrt(-2.0 * math.log(u1))
    return r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)
