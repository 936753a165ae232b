"""Feature cells as text, a block of rows at a time.

`write_csv` writes a feature value ``v`` as ``str(int(v))`` when it is
integral and ``|v| < 2**53``, and as ``repr(v)`` otherwise. `format_rows`
makes those exact characters for a whole block with numpy:

- `shortest_decimal` finds the decimal that repr prints, the shortest that
  reads back as the same float64 and the closest to it of that length. It is
  Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020):
  three round-to-odd products against a 126-bit power of ten, here done in
  30-bit limbs since numpy has no 64x64-bit product.
- `_positional` makes that decimal an integer part of at most 16 digits and
  a fraction of at most 19 digits, with no division on its common path. The
  integer part is floor(|v|), which is exact: below 2**53 the two integers
  around a non-integral v are float64s, so its decimal lies between the same
  two, and from 2**53 up to 1e16 the decimal is v itself, since the floats
  there are 2 apart and v has at most 16 digits. The fraction digits follow
  by multiplies. Only a decimal with 20 or 21 fraction digits takes a
  division, masked to those cells, to check and drop its trailing zeros.
- A table of 4-digit groups spells the two parts into one fixed-width slot
  of bytes per cell, beside its separator, ``-`` and ``.``. Dropping the
  zero bytes that pad each slot leaves the block's text. The word indices
  are int32, and each quotient and remainder by a constant is one
  floor-divide by a scalar plus a multiply-subtract. numpy runs a
  floor-divide by a scalar as a multiply and shift, but ``%``,
  ``np.divmod`` and a divide by an array as a division per element, and
  int32 arithmetic moves half the bytes of intp.

A cell whose repr is in scientific notation (decimal exponent below -4 or
from 16 up, which takes in every subnormal) or has more than 19 fraction
digits goes to `_repr_cells`, one repr at a time, and into its slot.

Significand arithmetic is np.uint64 throughout, constants included: numpy
1.x turns uint64 mixed with int64 into float64, which would drop digits
without an error. Exponents are int64 and meet a significand only as an
index or through an explicit cast. The word indices stay int32 when they
meet a Python int, by numpy 1.x's value-based casting as by numpy 2's
rules. Their named constants are np.int32 scalars: numpy 1.x widens a
numpy scalar with a Python int, and no array, to int64.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_FRACTION_BITS = _U((1 << 52) - 1)
_HIDDEN_BIT = _U(1 << 52)
# format_rows asks shortest_decimal only for values in this range, which
# holds every value that repr writes without an exponent.
_KERNEL_RANGE = (2.0**-14, 2.0**54)

# 10**i for i = 0..19; 10**19 is the largest power of ten a uint64 holds.
_P10 = np.array([10**i for i in range(20)], dtype=np.uint64)

# Powers of ten 10**e for the e in [-292, 324] that Schubfach can ask for with
# a float64: g = floor(10**e / 2**r) + 1, with r chosen so that
# 2**125 <= g < 2**126, as five 30-bit limbs (lowest first); and the shift
# r + 126, which is floor(log2(10**e)) + 1.
_E_MIN, _E_MAX = -292, 324
_LIMB = _U(30)
_LIMB_MASK = _U((1 << 30) - 1)


def _pow10_table():
    limbs = np.empty((5, _E_MAX - _E_MIN + 1), dtype=np.uint64)
    shift = np.empty(_E_MAX - _E_MIN + 1, dtype=np.int64)
    for i, e in enumerate(range(_E_MIN, _E_MAX + 1)):
        if e >= 0:
            r = (10**e).bit_length() - 126
            g = (10**e >> r if r >= 0 else 10**e << -r) + 1
        else:
            r = -(10**-e).bit_length() - 125
            g = (1 << -r) // 10**-e + 1
        limbs[:, i] = [(g >> (30 * j)) & ((1 << 30) - 1) for j in range(5)]
        shift[i] = r + 126
    return limbs, shift


_G, _G_SHIFT = _pow10_table()


def _round_to_odd(g: list[np.ndarray], cp: np.ndarray) -> np.ndarray:
    """floor(g * cp / 2**126), with its lowest bit set when the remainder is
    2**63 or more, for the 126-bit ``g`` in 30-bit limbs and ``cp`` < 2**60.
    g overstates its power of ten by less than one unit, so an exact product
    leaves a remainder below cp. An inexact one leaves at least 2**63, and
    the overstatement never carries it past the next multiple of 2**126, for
    every float64 below 2**215; a test checks this for `_KERNEL_RANGE`."""
    p0 = cp & _LIMB_MASK
    p1 = cp >> _LIMB
    g0, g1, g2, g3, g4 = g
    # Each column of partial products, plus the carry, stays below 2**63.
    col = g0 * p0 >> _LIMB
    col = (g1 * p0 + g0 * p1 + col) >> _LIMB
    col = g2 * p0 + g1 * p1 + col
    bits60 = col & _LIMB_MASK
    col = g3 * p0 + g2 * p1 + (col >> _LIMB)
    bits90 = col & _LIMB_MASK
    col = g4 * p0 + g3 * p1 + (col >> _LIMB)
    bits120 = col & _LIMB_MASK
    top = (g4 * p1 + (col >> _LIMB)) << _U(24) | bits120 >> _U(6)
    inexact = ((bits60 >> _U(3)) | bits90 | (bits120 & _U(63))) != _U(0)
    return top | inexact


def shortest_decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) with d * 10**e the decimal repr prints for each normal float64
    0 < x < 2**215: the shortest that reads back as x, and of those the
    closest, with an even d on a tie. d is uint64 below 10**17 and may end
    in zeros; e is int64."""
    bits = x.view(np.uint64)
    fraction = bits & _FRACTION_BITS
    biased = (bits >> _U(52)).astype(np.int64)
    c = fraction | _HIDDEN_BIT
    q = biased - 1075
    # At a power of two the float below is half as far away as the one above.
    closer = (fraction == _U(0)) & (biased > 1)
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) when closer.
    k = (q * 1262611 - closer * 524031) >> 22
    i = -k - _E_MIN
    g = [limbs[i] for limbs in _G]
    h = (q + _G_SHIFT[i]).astype(np.uint64)  # in [1, 4]
    # The rounding interval of 4 * x * 10**-k, from its lower end vbl to
    # its upper end vbr, each kept odd when it is inexact.
    cb = c << _U(2)
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - _U(2) + closer) << h)
    vbr = _round_to_odd(g, (cb + _U(2)) << h)
    odd = c & _U(1)  # an even c owns the ends of its interval, an odd c does not
    lower = vbl + odd
    upper = vbr - odd
    s = vb >> _U(2)
    # One digit fewer: a multiple of 10**(k+1) when exactly one of the two
    # around x lies in the interval.
    sp = s // _U(10)
    sp_in = lower <= sp * _U(40)
    sp1_in = sp * _U(40) + _U(40) <= upper
    shorter = sp_in != sp1_in
    # Otherwise a multiple of 10**k: the one in the interval, or the closer.
    s_in = lower <= s << _U(2)
    s1_in = (s << _U(2)) + _U(4) <= upper
    mid = (s << _U(2)) + _U(2)
    round_up = (vb > mid) | ((vb == mid) & (s & _U(1) == _U(1)))
    d = np.where(shorter, sp + sp1_in, s + np.where(s_in != s1_in, s1_in, round_up))
    return d, k + shorter


def _positional(x: np.ndarray, d: np.ndarray, e: np.ndarray):
    """The decimal d * 10**e, the shortest of each float64 x in
    `_KERNEL_RANGE`, as an integer part and 19 fraction digits (the fraction
    times 10**19), and whether repr writes it that way: 1e-4 <= it < 1e16
    (repr's positional range) and no more than 19 fraction digits. The
    integer part is floor(x); the module docstring says why that is exact."""
    t = -e  # digits after the point, trailing zeros included
    whole = np.floor(x).astype(np.uint64)
    a = np.clip(t, 0, 19)
    frac = (d * _P10[np.clip(-t, 0, 19)] - whole * _P10[a]) * _P10[19 - a]
    # A t of 20 or 21 has digits past the 19th, which must all be zeros.
    long = t > 19
    fits = t <= 21
    if long.any():
        digits, unit = d[long], _P10[np.clip(t[long] - 19, 0, 2)]
        frac[long] = digits // unit
        fits[long] &= frac[long] * unit == digits
    fits &= (whole < _P10[16]) & ((whole > _U(0)) | (frac >= _P10[15]))
    return whole, frac, fits


def _repr_cells(values: np.ndarray) -> list[str]:
    """The cells `format_rows` does not lay out itself, one repr each."""
    return list(map(repr, values.tolist()))


def _word_table() -> np.ndarray:
    """Four-byte words, each a piece of a cell's text padded with zero
    bytes, which `format_rows` drops. Word ``_WORDS[style + i]`` spells the
    4-digit group i in one of the styles named below the table."""
    i = np.arange(10_000, dtype=np.int16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = (i // place % 10 + ord("0")).astype(np.uint8)
    no_lead = np.where(i < place, np.uint8(0), digits)
    no_trail = np.where(i % (10 * place) == 0, np.uint8(0), digits)
    # 3-digit groups after a decimal point; the point takes the first byte.
    point = digits[:1000].copy()
    point[:, 0] = ord(".")
    point_no_trail = no_trail[:1000].copy()
    point_no_trail[:, 0] = ord(".")
    point_no_trail[0, 1] = ord("0")
    other = np.zeros((5, 4), dtype=np.uint8)
    other[:4, 0] = [ord(","), ord(","), ord("\n"), ord("\n")]
    other[[1, 3], 3] = ord("-")
    other[4, 3] = ord("0")
    styles = [digits, no_lead, no_trail, point, point_no_trail, other]
    return np.concatenate(styles).view(np.uint32).ravel()


_WORDS = _word_table()
# Styles: every digit; no leading zeros; no trailing zeros; "." and three
# digits; "." and three digits without trailing zeros, but ".0" for 0.
# Then a separator (",", ",-", "\n", "\n-" at 0 to 3) and the integer 0.
_FULL, _NO_LEAD, _NO_TRAIL, _POINT, _POINT_NO_TRAIL, _SEPARATOR, _ZERO = np.array(
    [0, 10_000, 20_000, 30_000, 31_000, 32_000, 32_004], dtype=np.int32
)
_BLANK = _NO_LEAD  # the word of 0 in that style has no characters


def _split(v: np.ndarray, unit):
    """v // unit and v % unit from one floor-divide by the scalar unit."""
    q = v // unit
    return q, v - q * unit


def format_rows(block: np.ndarray, as_repr: bool = False) -> list[str]:
    """Each row of the finite float64 matrix ``block`` as its cells joined by
    ",": ``str(int(v))`` for an integral v with |v| < 2**53, else ``repr(v)``.
    With ``as_repr``, every cell is ``repr(v)``: an integral v gets its
    ``.0`` and -0.0 its sign.

    A cell's slot is ten words: separator and sign, four groups of integer
    digits, then five of fraction digits of which the first holds the point."""
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    n = x.size
    ax = np.abs(x)
    integral = (ax == np.floor(ax)) & (ax < 2.0**53)
    whole = np.zeros(n, dtype=np.uint64)
    frac = np.zeros(n, dtype=np.uint64)
    whole[integral] = ax[integral].astype(np.uint64)
    work = ~integral & (ax >= _KERNEL_RANGE[0]) & (ax < _KERNEL_RANGE[1])
    aw = ax[work]
    w_whole, w_frac, fits = _positional(aw, *shortest_decimal(aw))
    whole[work] = np.where(fits, w_whole, _U(0))
    frac[work] = np.where(fits, w_frac, _U(0))
    by_repr = ~integral
    by_repr[work] = ~fits
    # A fraction of 0 is written ".0".
    pointed = ~by_repr if as_repr else ~integral & ~by_repr
    negative = np.signbit(x) if as_repr else x < 0

    # Row k holds word k of every cell, so each row below is written whole;
    # take's cast of the indices to intp transposes them as it copies.
    idx = np.empty((10, n), dtype=np.int32)
    separator = np.full((rows, cols), _SEPARATOR)
    separator[:, 0] += 2  # a row starts after "\n"
    idx[0] = separator.ravel() + (negative & ~by_repr)
    # whole < 10**16 and frac < 10**19: split into 8-digit int32 parts.
    hi, lo = (part.astype(np.int32) for part in _split(whole, _U(10**8)))
    hi_top, hi_low = _split(hi, 10_000)
    lo_top, lo_low = _split(lo, 10_000)
    idx[1] = _NO_LEAD + hi_top
    idx[2] = np.where(hi_top == 0, _NO_LEAD, _FULL) + hi_low
    idx[3] = np.where(hi == 0, _NO_LEAD, _FULL) + lo_top
    last = np.where(lo == 0, _ZERO, _NO_LEAD + lo)
    idx[4] = np.where((hi == 0) & (lo_top == 0), last, _FULL + lo_low)
    # A fraction group with only zeros after it drops its trailing zeros.
    top, rest = _split(frac, _U(10**16))
    hi, lo = (part.astype(np.int32) for part in _split(rest, _U(10**8)))
    hi_top, hi_low = _split(hi, 10_000)
    lo_top, lo_low = _split(lo, 10_000)
    point = np.where((hi == 0) & (lo == 0), _POINT_NO_TRAIL, _POINT) + top.astype(np.int32)
    idx[5] = np.where(pointed, point, _BLANK)
    idx[6] = np.where(hi_low + lo == 0, _NO_TRAIL, _FULL) + hi_top
    idx[7] = np.where(lo == 0, _NO_TRAIL, _FULL) + hi_low
    idx[8] = np.where(lo_low == 0, _NO_TRAIL, _FULL) + lo_top
    idx[9] = _NO_TRAIL + lo_low
    slots = _WORDS.take(idx.T).view(np.uint8)
    if by_repr.any():
        # After the separator word; repr brings its own "-".
        slots[by_repr, 4:] = np.array(_repr_cells(x[by_repr]), dtype="S36").view(np.uint8).reshape(-1, 36)
    slots = slots.ravel()
    # The text starts with the first row's "\n".
    return slots[slots != 0].tobytes().decode("ascii").split("\n")[1:]
