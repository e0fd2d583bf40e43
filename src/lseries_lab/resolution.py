"""Amplitude/phase vector resolutions of a truncated L-series.

The truncation sum(chi(n) * n^-s, n <= N) factors componentwise into two
length-N vectors in either of two ways:

* ``amplitude_chi`` -- a_vec[n] = chi(n) / n^sigma carries the character,
  p_vec[n] = n^-it = cos(t ln n) - i sin(t ln n) is the bare phase;
* ``phase_chi`` -- a_vec[n] = 1 / n^sigma is the bare amplitude,
  p_vec[n] = chi(n) * n^-it carries the character.

In both variants a_vec[k] * p_vec[k] = chi(k+1) * (k+1)^-s, so the bilinear
dot of the pair reproduces the truncation (audit claims EQ2, EQ3).  Both
factors are kernel terms, the amplitude at the point complex(sigma, 0) and the
phase at complex(0, t), the bare ones of the trivial character mod 1, and
s is a Python complex.  ``build_vectors`` returns the pair (a_vec, p_vec) of
plain tuples, and their pairing, formal norms and cosines are the
unconjugated ones of :mod:`lseries_lab.cgeom`, where a vector whose formal
norm is exactly zero is *isotropic* and has no cosine
(that is a distinct error, not a division blowup).  ``phase_series_sums``
exposes the raw phase partial sums (sum cos(t ln n), sum sin(t ln n)); at
t = 0 the cosine sum counts terms exactly (integer path), which is the
divergence witness the audit module fits.
"""

from __future__ import annotations

from .characters import DirichletCharacter, principal_character
from .lseries import _check_finite, _count, _running_sums, _terms

__all__ = [
    "AMPLITUDE_CHI",
    "PHASE_CHI",
    "VARIANTS",
    "build_vectors",
    "phase_series_sums",
]

AMPLITUDE_CHI = "amplitude_chi"
PHASE_CHI = "phase_chi"
VARIANTS = (AMPLITUDE_CHI, PHASE_CHI)

_TRIVIAL = principal_character(1)


def build_vectors(chi: DirichletCharacter, s, n_terms: int, variant: str) -> tuple:
    """Factor the N-term truncation at s into the pair (a_vec, p_vec) per
    `variant`; entry k of each tuple belongs to n = k + 1.  A point with a
    NaN or infinite part raises ValueError, naming the point, before either
    factor is made."""
    s = complex(s)
    _check_finite(s)
    n_terms = _count(n_terms, "term")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    a_chi, p_chi = (chi, _TRIVIAL) if variant == AMPLITUDE_CHI else (_TRIVIAL, chi)
    a_vec = tuple(_terms(a_chi, complex(s.real, 0.0), n_terms + 1))
    return a_vec, tuple(_terms(p_chi, complex(0.0, s.imag), n_terms + 1))


def phase_series_sums(t: float, n_terms: int) -> tuple:
    """(sum cos(t ln n), sum sin(t ln n)) for n = 1..n_terms.

    At t = 0 every cosine term is exactly 1 and every sine term exactly 0,
    so the sums are (n_terms, 0) by integer counting -- no rounding.  A
    non-integral n_terms raises TypeError.
    """
    n_terms = _count(n_terms, "term")
    if t == 0.0:
        return float(n_terms), 0.0
    total = _running_sums(_TRIVIAL, complex(0.0, t), [n_terms])[0]  # sum of n^-it
    return total.real, -total.imag
