"""Text normalization and similarity helpers shared across the package."""

from __future__ import annotations

import re
import string
from typing import Sequence

_WORD = re.compile(r"[^\W_]+")
#: Every character ``str.split()`` and ``re``'s ``\s`` split on: ASCII
#: whitespace, the four ASCII separators and the Unicode spaces.
_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
#: A text is blank (normalizes to "") exactly when stripping these leaves nothing.
_STRIP_CHARS = string.punctuation + _WHITESPACE


def normalize(text: str) -> str:
    """Canonical comparison form: whitespace runs collapsed to single
    spaces, surrounding punctuation and whitespace stripped, lowercased.
    Idempotent, and the result never starts or ends with either."""
    return " ".join(text.split()).strip(_STRIP_CHARS).lower()


def word_tokens(text: str) -> list[str]:
    """Lowercase word tokens: maximal runs of Unicode letters and digits, so
    whitespace, punctuation, dots and underscores all separate
    (``currency_of`` yields ``currency``, ``of``; ``Zürich`` stays whole)."""
    return _WORD.findall(text.lower())


def token_jaccard(a: set[str] | frozenset[str], b: set[str] | frozenset[str]) -> float:
    """Jaccard overlap of two word-token sets (0 when either is empty)."""
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def levenshtein(a: str, others: Sequence[str]) -> list[int]:
    """Edit distance (unit-cost insert, delete, substitute) from ``a`` to
    each string of ``others``, in order.

    One bit-parallel pass over ``a`` computes them all: the algorithm of
    Myers (1999) in Hyyrö's formulation, with the strings of ``others``
    packed side by side as in Hyyrö, Fredriksson and Navarro, "Increased
    bit-parallelism for approximate and multiple string matching" (JEA
    2005). Each string is a segment of one Python int, one bit per
    character, with a zero guard bit above it that absorbs the carry of the
    addition. Each character of ``a`` updates every segment's column of
    vertical deltas in a constant number of integer operations; the shifts
    are masked to the segments, and each segment shifts in its own top-row
    +1 (D[0][j] = j). After the pass a segment's distance is ``len(a)``,
    the top row's last value, plus its +1 deltas minus its -1 deltas.
    """
    peq: dict[str, int] = {}  # character -> its positions in every segment
    offsets = []
    lows = guards = 0
    offset = 0
    for other in others:
        offsets.append(offset)
        if not other:
            continue
        bit = 1 << offset
        lows |= bit
        for ch in other:
            peq[ch] = peq.get(ch, 0) | bit
            bit <<= 1
        guards |= bit
        offset += len(other) + 1
    mask = ((1 << offset) - 1) ^ guards
    pv, mv = mask, 0
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        # eq and pv are 0 on the guards, so a carry out of a segment stops at its guard
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        ph = ((ph << 1) | lows) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    n = len(a)
    distances = []
    for other, offset in zip(others, offsets):
        segment = (1 << len(other)) - 1
        distances.append(n + ((pv >> offset) & segment).bit_count() - ((mv >> offset) & segment).bit_count())
    return distances
