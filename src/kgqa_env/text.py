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
#: ``bytes.translate`` tables, one for each ASCII code: that byte to ``1``, every other to ``0``.
_ONE_HOT = tuple(b"0" * code + b"1" + b"0" * (255 - code) for code in range(128))


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


def levenshtein(a: str, others: Sequence[str]) -> list[int]:
    """Edit distance (unit-cost insert, delete, substitute) from ``a`` to
    each string of ``others``, in order.

    One bit-parallel pass over ``a`` computes them all: the algorithm of
    Myers (1999) in Hyyrö's formulation, with the strings of ``others``
    packed side by side as in Hyyrö, Fredriksson and Navarro, "Increased
    bit-parallelism for approximate and multiple string matching" (JEA
    2005). Each string is a segment of one Python int, one bit per
    character, and a zero guard bit between neighbouring segments absorbs
    the carry of the addition. Each character of ``a`` updates every
    segment's column of vertical deltas in a constant number of integer
    operations; each segment shifts in its own top-row +1 (D[0][j] = j).
    After the pass a segment's distance is ``len(a)``, the top row's last
    value, plus its +1 deltas minus its -1 deltas.

    The packed text is ``others`` joined by NUL guards, read as a binary
    number with its first character highest, so each segment holds its
    string backwards; the pass reads ``a`` backwards too, which keeps every
    distance. Each character of ``a`` that the packed text holds takes its
    mask from one C-level translate of that text to ``0``/``1`` and one
    ``int(..., 2)``, ASCII text as bytes; the deltas are read out by
    rendering each delta vector once as binary text and counting its ``1``
    over each segment's slice. The cost is linear in the packed length for
    each distinct character of ``a``, plus ``len(a)`` big-int steps over it.
    """
    n = len(a)
    if not any(others):  # nothing to pack: each distance is len(a)
        return [n] * len(others)
    packed = "\0".join(others)
    # 1 on each character, 0 on each guard, even where a string holds a NUL
    mask = int("0".join(map("1".__mul__, map(len, others))), 2)
    lows = mask & ~(mask << 1)  # each segment's lowest bit: its string's last character
    present = [ch for ch in set(a) if ch in packed]
    # peq maps a character to its positions in every segment; "& mask"
    # clears the guards, which a NUL of ``a`` would otherwise match
    if packed.isascii():
        text = packed.encode("ascii")
        peq = {ch: int(text.translate(_ONE_HOT[ord(ch)]), 2) & mask for ch in present}
    else:
        table = dict.fromkeys(map(ord, set(packed)), "0")
        peq = {}
        for ch in present:
            table[ord(ch)] = "1"
            peq[ch] = int(packed.translate(table), 2) & mask
            table[ord(ch)] = "0"
    pv, mv = mask, 0
    for ch in reversed(a):
        eq = peq.get(ch, 0)
        xv = eq | mv
        # eq and pv are 0 on the guards, so a carry out of a segment stops at its guard
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = (pv & xh) << 1
        # the shifts carry each segment's top bit into the guard above it;
        # pv drops it through the mask, mv through xv, which is 0 on the guards
        ph = (ph << 1) | lows
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    width = len(packed)
    plus, minus = f"{pv:0{width}b}", f"{mv:0{width}b}"  # character i of packed is character i here
    distances = []
    start = 0
    for other in others:
        end = start + len(other)
        distances.append(n + plus.count("1", start, end) - minus.count("1", start, end))
        start = end + 1
    return distances
