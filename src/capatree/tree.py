"""Binary words and cylinder sets.

Words are plain strings over {'0','1'}; the empty string is the root.
A finite union of boundary cylinders is kept canonical as a sorted
antichain of generator words (no generator is a prefix of another).
The target leaves of a finite problem are checked here, once.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Sequence

from .errors import DomainError
from .exponents import Record, _set


def validate_word(word: str) -> str:
    if not isinstance(word, str) or word.strip("01"):
        raise DomainError(f"words must be bit strings over the alphabet {{0,1}}, got {word!r}")
    return word


def _sorted_words(words: Iterable[str]) -> list[str]:
    """The words validated and sorted; DomainError for a bare string."""
    if isinstance(words, str):
        raise DomainError(f"expected an iterable of words, got the string {words!r}")
    out = list(words)
    _validate_words(out)
    return sorted(out)


def _leaves(words: Iterable[str], depth: int) -> tuple[str, ...]:
    """The target leaves of a depth-``depth`` finite problem: validated, sorted, without repeats."""
    leaves = _sorted_words(words)
    if any(map(str.__eq__, leaves, islice(leaves, 1, None))):  # repeats are neighbours; scan before hashing every word
        leaves = list(dict.fromkeys(leaves))
    leaves = tuple(leaves)
    if set(map(len, leaves)) - {depth}:
        leaf = next(w for w in leaves if len(w) != depth)
        raise DomainError(f"target {leaf!r} does not have length {depth}")
    return leaves


def _validate_words(words: Sequence[str]) -> None:
    """validate_word on each word, with one byte-level scan of their concatenation.

    ASCII encoding maps every other character (lone surrogates too) to b"?",
    so bytes other than 0 and 1 remain exactly when some word is bad; only
    then is each word checked, so that the error names it.
    """
    try:
        bad = "".join(words).encode("ascii", "replace").translate(None, b"01")
    except TypeError:  # a word that is not a string
        bad = True
    if bad:
        for w in words:
            validate_word(w)


class CylinderSet(Record):
    """Canonical antichain of generator words for a finite union of cylinders.

    The generators are stored sorted, whatever order they are given in.
    """

    _fields = ("generators",)

    def __init__(self, generators: Iterable[str]):
        gens = tuple(_sorted_words(generators))
        for prev, cur in zip(gens, gens[1:]):
            if cur.startswith(prev):
                raise DomainError(f"generators are not an antichain: {prev!r} <= {cur!r}")
        _set(self, "generators", gens)

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "CylinderSet":
        """Drop any word that has a (weak) prefix in the set; sort the rest.

        Lexicographic order lists a word right after its repeats and all of
        its kept prefixes, so comparing against the last kept word suffices;
        when no word starts with its predecessor that loop is skipped (if w_j
        is a prefix of w_i, j < i, then w_{j+1} sorts between them and starts
        with w_j).  Every word is validated once, dropped ones included, and
        the result is built without re-running the checks of direct construction.
        """
        ordered = kept = _sorted_words(words)
        if any(map(str.startswith, islice(ordered, 1, None), ordered)):
            kept = []
            for w in dict.fromkeys(ordered):  # drops repeats in C
                if not (kept and w.startswith(kept[-1])):
                    kept.append(w)
        out = object.__new__(cls)
        _set(out, "generators", tuple(kept))
        return out

    def bit_flip(self) -> "CylinderSet":
        table = str.maketrans("01", "10")
        return CylinderSet.from_words(g.translate(table) for g in self.generators)


def _check_run_set(n: int, kappa: int) -> None:
    """DomainError unless n >= 0 and kappa >= 1 are ints (a bool is not one)."""
    if type(n) is not int or type(kappa) is not int or n < 0 or kappa < 1:
        raise DomainError(f"need ints n >= 0 and kappa >= 1, got n={n!r}, kappa={kappa!r}")


def d_cylinder_set(n: int, kappa: int) -> CylinderSet:
    """Explicit generator antichain for the run set D(n, kappa).

    Generators are every length-n word followed by kappa zeros, i.e. the
    boundary points whose digits n+1 .. n+kappa all vanish.
    """
    _check_run_set(n, kappa)
    if n >= 15 or (n + kappa) * 2 ** n > 2 ** 15:  # n >= 15 always fails: test it before forming 2**n
        raise DomainError("explicit cylinder set too large; use the closed form")
    zeros = "0" * kappa
    return CylinderSet.from_words(
        format(i, f"0{n}b") + zeros if n else zeros for i in range(2 ** n)
    )
