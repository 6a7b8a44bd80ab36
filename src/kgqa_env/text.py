"""Text normalization and similarity helpers shared across the package."""

from __future__ import annotations

import re
import string

_WS = re.compile(r"\s+")
_NON_WORD = re.compile(r"[^0-9a-z]+")
_STRIP_CHARS = string.punctuation + string.whitespace


def normalize(text: str) -> str:
    """Canonical comparison form: lowercase, trimmed, surrounding punctuation
    stripped, inner whitespace collapsed to single spaces."""
    out = text.strip(_STRIP_CHARS)
    out = _WS.sub(" ", out)
    return out.lower()


def word_tokens(text: str) -> list[str]:
    """Lowercase word tokens; splits on whitespace, punctuation, dots and
    underscores (so ``currency_of`` yields ``currency``, ``of``)."""
    return [t for t in _NON_WORD.split(text.lower()) if t]


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


def contains_normalized(haystack: str, needle: str) -> bool:
    """True when the normalized needle occurs as a substring of the
    normalized haystack; empty needles never match."""
    n = normalize(needle)
    return bool(n) and n in normalize(haystack)
