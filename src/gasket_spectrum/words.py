"""Ternary words, eventually periodic sequences, and the Thue-Morse difference blocks.

Words are plain tuples of digits. The ternary alphabet is {-1, 0, 1}; ladder
words elsewhere use {0, 1, 2}. Eventually periodic sequences are represented
canonically (primitive period, minimal preperiod) so equality and hashing are
decidable.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import cache
from threading import Lock

from .errors import DomainError, ResourceLimitError

Word = tuple  # tuple of digits

MAX_BLOCK_EXPONENT = 24  # block 24 has 2^24 digits
MAX_WORD_LENGTH = 1 << 24  # longest tail word kl_tail may build


def thue_morse_bit(i: int) -> int:
    """Parity-of-ones bit sequence: position 0 is 0, doubling fixes, doubling+1 flips."""
    if i < 0:
        raise DomainError("index must be nonnegative")
    bit = 0
    while i:
        bit ^= i & 1
        i >>= 1
    return bit


def tm_diff(i: int) -> int:
    """First difference of the parity bit sequence at position i >= 1; values in {-1,0,1}."""
    if i < 1:
        raise DomainError("index must be positive")
    return thue_morse_bit(i) - thue_morse_bit(i - 1)


@cache
def _block(n: int) -> Word:
    if n == 0:
        return (1,)
    w = _block(n - 1)
    return w + inc_last(reflect(w))


def tm_block(n: int) -> Word:
    """Length-2^n prefix of the difference sequence.

    Built by the doubling rule: block(0) = (1,), block(n+1) = block(n)
    followed by its reflection with the final digit incremented.
    """
    if n < 0:
        raise DomainError("block exponent must be nonnegative")
    if n > MAX_BLOCK_EXPONENT:
        raise ResourceLimitError(f"block exponent {n} exceeds cap {MAX_BLOCK_EXPONENT}")
    return _block(n)


def block_word(n: int) -> Word:
    """The period block(n) + reflect(block(n)) of length 2^(n+1)."""
    e = tm_block(n)
    return e + reflect(e)


def reflect(word: Word) -> Word:
    """Digitwise negation (reflection of the symmetric ternary alphabet)."""
    return tuple(-d for d in word)


def inc_last(word: Word) -> Word:
    """Increment the final digit; the result must stay inside the ternary alphabet."""
    if not word:
        raise DomainError("cannot increment the last digit of an empty word")
    if word[-1] >= 1:
        raise DomainError(f"last digit {word[-1]} is already the largest letter")
    return word[:-1] + (word[-1] + 1,)


def dec_last(word: Word, alphabet_min: int = -1) -> Word:
    """Decrement the final digit; the result must stay inside the alphabet."""
    if not word:
        raise DomainError("cannot decrement the last digit of an empty word")
    if word[-1] <= alphabet_min:
        raise DomainError(f"last digit {word[-1]} is already the smallest letter")
    return word[:-1] + (word[-1] - 1,)


def _primitive_period(period: Word) -> Word:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


class Immutable:
    """Base of the package's frozen records: each subclass lists its fields in
    __slots__ and sets them once in __init__ through object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # copy and pickle restore the slots, given as state[1], by setattr
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def fields_repr(self) -> str:
    """Type(field=value, ...) over __slots__: the __repr__ of the small result
    records. Not Immutable's, since a point cloud would print every point."""
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
    return f"{type(self).__name__}({fields})"


class Seq(Immutable):
    """Eventually periodic sequence preperiod . period^inf over arbitrary digits.

    The constructor canonicalizes: the period is reduced to its primitive
    length, then the preperiod loses its longest suffix that continues the
    period backwards, and the period is rotated right by that suffix's length.
    Two constructions of the same sequence therefore compare (and hash) equal.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: Iterable, period: Iterable):
        pre = tuple(preperiod)
        per = _primitive_period(tuple(period))
        if not per:
            raise DomainError("period must be nonempty")
        if pre and pre[-1] == per[-1]:
            p, k = len(per), 1  # k = length of the suffix to drop
            while k < len(pre) and pre[-1 - k] == per[-1 - k % p]:
                k += 1
            r = p - k % p
            pre, per = pre[:-k], per[r:] + per[:r]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def __eq__(self, other):
        return (
            isinstance(other, Seq)
            and self.preperiod == other.preperiod
            and self.period == other.period
        )

    def __hash__(self):
        return hash((self.preperiod, self.period))

    def __repr__(self):
        return f"Seq({self.preperiod!r}, {self.period!r})"

    def digit(self, i: int):
        """1-based digit access."""
        if i < 1:
            raise DomainError("positions are 1-based")
        if i <= len(self.preperiod):
            return self.preperiod[i - 1]
        return self.period[(i - 1 - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> Word:
        """The first n digits."""
        if n < 0:
            raise DomainError("prefix length must be nonnegative")
        pre, per = self.preperiod, self.period
        k, r = divmod(max(n - len(pre), 0), len(per))
        return pre[:n] + per * k + per[:r]

    def shift(self, i: int) -> "Seq":
        """Drop the first i digits and recanonicalize."""
        if i < 0:
            raise DomainError("shift must be nonnegative")
        if i <= len(self.preperiod):
            return Seq(self.preperiod[i:], self.period)
        k = (i - len(self.preperiod)) % len(self.period)
        return Seq((), self.period[k:] + self.period[:k])

    def map(self, fn: Callable) -> "Seq":
        return Seq(tuple(map(fn, self.preperiod)), tuple(map(fn, self.period)))

    def reflect(self) -> "Seq":
        return self.map(lambda d: -d)


_SWAP_LOCK = Lock()


def keep_longer(slot: list, run):
    """Store run in the one-slot list slot unless the slot already holds a run
    at least as long, and return what the slot holds: the swap rule of the
    grow-only caches, whose every run is a prefix of any longer one."""
    with _SWAP_LOCK:
        if len(slot[0]) < len(run):
            slot[0] = run
        return slot[0]


def ternary_seq(preperiod: Iterable[int], period: Iterable[int]) -> Seq:
    """Seq over {-1, 0, 1} with digit validation."""
    s = Seq(preperiod, period)
    for d in s.preperiod + s.period:
        if d not in (-1, 0, 1):
            raise DomainError(f"digit {d!r} is not in the ternary alphabet")
    return s


# ---------------------------------------------------------------------------
# Serialization. Grammar (documented for the CLI and JSON reports):
#
#   sequence  :=  [word] ";" word "^inf"   |   word "^inf"
#   word      :=  compact | commalist
#   compact   :=  ("+" | "-" | "0")*          one character per digit
#   commalist :=  digit ("," digit)*           digits in {-1, 0, 1}
#
# The part before ";" is the preperiod (may be empty), the part before
# "^inf" is the period. Formatting always emits the compact form.
# ---------------------------------------------------------------------------

_COMPACT = {1: "+", 0: "0", -1: "-"}
_PARSE = {"+": 1, "0": 0, "-": -1}


def format_word(word: Word) -> str:
    try:
        return "".join(_COMPACT[d] for d in word)
    except KeyError as exc:
        raise DomainError(f"cannot format non-ternary digit {exc.args[0]!r}") from exc


def parse_word(text: str) -> Word:
    text = text.strip()
    if text == "":
        return ()
    if "," in text:
        digits = []
        for part in (p.strip() for p in text.split(",")):
            if part not in ("-1", "0", "1"):
                raise DomainError(f"bad ternary digit {part!r}")
            digits.append(int(part))
        return tuple(digits)
    if all(ch in _PARSE for ch in text):
        return tuple(_PARSE[ch] for ch in text)
    raise DomainError(f"cannot parse word {text!r}")


def format_seq(seq: Seq) -> str:
    pre = format_word(seq.preperiod)
    per = format_word(seq.period)
    return (pre + ";" if pre else "") + per + "^inf"


def parse_seq(text: str) -> Seq:
    text = text.strip()
    if not text.endswith("^inf"):
        raise DomainError("sequence literal must end with '^inf'")
    body = text[: -len("^inf")]
    if ";" in body:
        pre_text, per_text = body.split(";", 1)
    else:
        pre_text, per_text = "", body
    per = parse_word(per_text)
    if not per:
        raise DomainError("period must be nonempty")
    return ternary_seq(parse_word(pre_text), per)
