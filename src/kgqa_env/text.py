"""Text normalization and similarity helpers shared across the package."""

from __future__ import annotations

import re
import string

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


def levenshtein(a: str, b: str) -> int:
    """Edit distance (unit-cost insert, delete, substitute) by the
    bit-parallel algorithm of Myers (1999) in Hyyrö's formulation: the
    longer string becomes one bitmask per distinct character, held in a
    Python int, and each character of the shorter string updates the whole
    column of vertical deltas in a constant number of integer operations."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    m = len(a)
    if not b:
        return m
    peq: dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, score = mask, 0, m
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # the shifted-in 1 is the top row's +1 step: D[0][j] = j
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score

