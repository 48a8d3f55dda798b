"""Word algebra for free products of Z and Z2 factors.

Elements of the group Z^(*r) * Z2^(*t) are kept in reduced form as tuples
of signed generator indices: ``+i`` is the i-th generator, ``-i`` its
inverse (only for i <= r; order-2 generators are their own inverses and
are always stored with positive sign).  The Cayley graph of this group
with respect to the standard generators is the d-regular tree for
d = 2r + t, so reduced words double as tree-vertex addresses and the
word length is the graph distance from the identity.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional, Sequence

DEFAULT_SEQUENCE_BUDGET = 10_000_000


@dataclass(frozen=True)
class FreeProductSignature:
    """Shape of the free product: r copies of Z and t copies of Z2."""

    r: int
    t: int

    def __post_init__(self):
        if self.r < 0 or self.t < 0:
            raise ValueError(f"factor counts must be nonnegative, got r={self.r}, t={self.t}")
        if self.degree < 3:
            raise ValueError(f"degree 2r+t = {self.degree} < 3 is not supported")

    @property
    def degree(self) -> int:
        return 2 * self.r + self.t

    @property
    def num_generators(self) -> int:
        return self.r + self.t

    def letter_inverse(self, letter: int) -> int:
        """Inverse of a signed letter; order-2 letters are self-inverse."""
        return -letter if abs(letter) <= self.r else letter

    def alphabet(self) -> tuple[int, ...]:
        """All 2r+t signed letters, in the fixed order a1, a1^-1, a2, ..."""
        letters = []
        for i in range(1, self.r + 1):
            letters.extend((i, -i))
        letters.extend(range(self.r + 1, self.r + self.t + 1))
        return tuple(letters)

    def validate_letter(self, letter: int) -> None:
        idx = abs(letter)
        if letter == 0 or idx > self.num_generators:
            raise ValueError(f"letter {letter} out of range for {self.num_generators} generators")
        if letter < 0 and idx > self.r:
            raise ValueError(f"letter {letter}: order-2 generators carry no inverse sign")


def _pack_letters(seq: Iterable, sig: FreeProductSignature) -> tuple[int, ...]:
    packed = tuple(int(x) for x in seq)
    for letter in packed:
        sig.validate_letter(letter)
    return packed


def _multiply_raw(a: Sequence[int], b: Sequence[int], r: int) -> tuple[int, ...]:
    # Push b's letters onto reduced a, each cancelling the top when it is
    # its inverse; with a = () this is the unique reduced form of b.
    stack = list(a)
    for x in b:
        inv = -x if abs(x) <= r else x
        if stack and stack[-1] == inv:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def _inverse_raw(letters: Sequence[int], r: int) -> tuple[int, ...]:
    return tuple(-x if abs(x) <= r else x for x in reversed(letters))


def _ball_words(
    sig: FreeProductSignature, radius: int, center: tuple[int, ...] = ()
) -> list[tuple[int, ...]]:
    """The reduced words within ``radius`` of ``center``, breadth-first:
    each word's neighbours one step further out follow in alphabet order."""
    r = sig.r
    steps = [(x, -x if abs(x) <= r else x) for x in sig.alphabet()]
    words = [center]
    back = [0]  # the letter stepping from each word towards the center
    start = 0
    for _ in range(radius):
        end = len(words)
        for i in range(start, end):
            w = words[i]
            for x, inv in steps:
                if x == back[i]:
                    continue
                words.append(w[:-1] if w and w[-1] == inv else w + (x,))
                back.append(inv)
        start = end
    return words


def _letters_sort_key(letters: tuple[int, ...]) -> tuple:
    # a1 < a1^-1 < a2 < a2^-1 < ... ; shorter words first.
    return (len(letters), tuple((abs(x), 0 if x > 0 else 1) for x in letters))


@dataclass(frozen=True)
class Word:
    """A group element in reduced form; also a d-regular-tree vertex address."""

    letters: tuple[int, ...]
    sig: FreeProductSignature

    def __post_init__(self):
        for x in self.letters:
            self.sig.validate_letter(x)
        if self.letters != _multiply_raw((), self.letters, self.sig.r):
            raise ValueError(f"letters {self.letters} are not in reduced form")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_to_str(self)

    def sort_key(self) -> tuple:
        return _letters_sort_key(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    @classmethod
    def identity(cls, sig: FreeProductSignature) -> "Word":
        return cls((), sig)

    @classmethod
    def from_letters(cls, seq: Iterable, sig: FreeProductSignature) -> "Word":
        """Build the reduced word representing the product of ``seq``."""
        return cls(_multiply_raw((), _pack_letters(seq, sig), sig.r), sig)


def reduce(seq: Iterable, sig: FreeProductSignature) -> Word:
    """Reduced form of a letter sequence (idempotent, same group element)."""
    return Word.from_letters(seq, sig)


def multiply(w1: Word, w2: Word) -> Word:
    if w1.sig != w2.sig:
        raise ValueError(f"signature mismatch: {w1.sig} vs {w2.sig}")
    return Word(_multiply_raw(w1.letters, w2.letters, w1.sig.r), w1.sig)


def inverse(w: Word) -> Word:
    return Word(_inverse_raw(w.letters, w.sig.r), w.sig)


def is_palindrome(w: Word) -> bool:
    """True iff the letter sequence (signs included) equals its reverse."""
    return w.letters == tuple(reversed(w.letters))


_LETTER_RE = re.compile(r"([aA])(\d+)")


def word_to_str(w: Word) -> str:
    """Serialize as e.g. ``a1A2a1``; uppercase marks an inverse; e is empty."""
    if not w.letters:
        return "e"
    return "".join(f"a{x}" if x > 0 else f"A{-x}" for x in w.letters)


def word_from_str(text: str, sig: FreeProductSignature) -> Word:
    if text == "e":
        return Word.identity(sig)
    pos = 0
    letters = []
    for m in _LETTER_RE.finditer(text):
        if m.start() != pos:
            raise ValueError(f"cannot parse word {text!r} at offset {pos}")
        idx = int(m.group(2))
        letters.append(idx if m.group(1) == "a" else -idx)
        pos = m.end()
    if pos != len(text):
        raise ValueError(f"cannot parse word {text!r} at offset {pos}")
    return Word.from_letters(letters, sig)


# ---------------------------------------------------------------------------
# Length-k free generating sets
# ---------------------------------------------------------------------------

CONSTRUCTION_ODD_K_EVEN_D = "odd-k-even-d"
CONSTRUCTION_ODD_K_ODD_D = "odd-k-odd-d"
CONSTRUCTION_EVEN_K = "even-k"


@dataclass(frozen=True)
class GeneratingSet:
    """Words of common length k claimed to freely generate a subgroup."""

    elements: tuple[Word, ...]
    k: int
    claimed_rank: int
    construction: str
    sig: FreeProductSignature

    def __post_init__(self):
        if len(self.elements) != self.claimed_rank:
            raise ValueError(
                f"{len(self.elements)} elements but claimed rank {self.claimed_rank}"
            )
        if len(set(w.letters for w in self.elements)) != len(self.elements):
            raise ValueError("generating set contains duplicate words")
        for w in self.elements:
            if len(w) != self.k:
                raise ValueError(f"element {w} has length {len(w)}, expected {self.k}")
        inverses = {inverse(w).letters for w in self.elements}
        if inverses & {w.letters for w in self.elements}:
            raise ValueError("generating set intersects its own inverse set")

    @property
    def half_length(self) -> int:
        """l such that k = 2l or k = 2l+1."""
        return self.k // 2

    def symmetrized(self) -> tuple[Word, ...]:
        """The elements followed by their inverses (2 * rank words)."""
        return self.elements + tuple(inverse(w) for w in self.elements)

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "d": self.sig.degree,
            "k": self.k,
            "rank": self.claimed_rank,
            "construction": self.construction,
            "elements": [word_to_str(w) for w in self.elements],
        }
        return json.dumps(payload, sort_keys=True)


def expected_rank(d: int, k: int) -> int:
    """Rank of the length-k free subgroup construction: d(d-1)^l/2 for odd
    k = 2l+1, (d-1)^l for even k = 2l."""
    l = k // 2
    if k % 2 == 1:
        return d * (d - 1) ** l // 2
    return (d - 1) ** l


def _all_palindromes(sig: FreeProductSignature, k: int) -> list[Word]:
    # Palindromes b1..bl b_{l+1} bl..b1 of length k = 2l+1 with no
    # cancelling adjacent pair; mirroring preserves reducedness.
    l = k // 2
    return [
        Word(half + half[-2::-1], sig)
        for half in _ball_words(sig, l + 1)
        if len(half) == l + 1
    ]


def _nested_even_words(sig: FreeProductSignature, k: int) -> list[Word]:
    # Words s(j, b) = phi_j(b_l)..phi_j(b_1) b_1..b_l over the all-Z2
    # alphabet, with b_1 = a1, b_{i+1} != b_i, and phi_j the index shift
    # by j (mod d).  The middle pair phi_j(b_1) b_1 = a_{j+1} a_1 runs
    # over the d-1 length-2 seeds.
    d = sig.degree
    l = k // 2
    suffixes = [b for b in _ball_words(sig, l) if len(b) == l and b[0] == 1]
    out = []
    for j in range(1, d):
        for b in suffixes:
            shifted = tuple((x - 1 + j) % d + 1 for x in b)
            out.append(Word(shifted[::-1] + b, sig))
    return out


def build_generators(d: int, k: int) -> GeneratingSet:
    """Construct the maximal-rank set of length-k words freely generating
    a subgroup, with the signature depending on the parities of d and k."""
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k % 2 == 1:
        if d % 2 == 0:
            sig = FreeProductSignature(d // 2, 0)
            construction = CONSTRUCTION_ODD_K_EVEN_D
        else:
            if k == 1:
                raise ValueError(
                    "k=1 with odd d has no length-k subgroup construction; "
                    "use the edge bound 2/d directly"
                )
            sig = FreeProductSignature((d - 1) // 2, 1)
            construction = CONSTRUCTION_ODD_K_ODD_D
        palindromes = _all_palindromes(sig, k)
        chosen = []
        seen = set()
        for w in sorted(palindromes, key=Word.sort_key):
            if w.letters in seen:
                continue
            seen.add(w.letters)
            seen.add(inverse(w).letters)
            chosen.append(w)
        elements = tuple(chosen)
    else:
        sig = FreeProductSignature(0, d)
        construction = CONSTRUCTION_EVEN_K
        elements = tuple(sorted(_nested_even_words(sig, k), key=Word.sort_key))
    return GeneratingSet(elements, k, expected_rank(d, k), construction, sig)


# ---------------------------------------------------------------------------
# Bounded brute-force verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a bounded exhaustive check (a certificate, not a proof)."""

    passed: bool
    complete: bool
    checked: int
    n_max: int
    min_product_length: Optional[int] = None
    counterexample: tuple[str, ...] = field(default_factory=tuple)
    message: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        scope = f"n <= {self.n_max}" if self.complete else f"n <= {self.n_max}, INCOMPLETE"
        extra = f"; counterexample {' . '.join(self.counterexample)}" if self.counterexample else ""
        return f"{status} ({scope}, {self.checked} sequences checked){extra}"


def _products(factors: Sequence[tuple[int, ...]], inverse_of: Sequence[int], r: int, n_max: int):
    """Every sequence of 1..n_max factor indices in which no factor is
    followed by its formal inverse ``inverse_of[i]``, depth-first, each with
    the reduced product before and after its last factor."""
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())] if n_max > 0 else []
    while stack:
        seq, prod = stack.pop()
        for i, g in enumerate(factors):
            if seq and i == inverse_of[seq[-1]]:
                continue
            new_seq = seq + (i,)
            new_prod = _multiply_raw(prod, g, r)
            yield new_seq, prod, new_prod
            if len(new_seq) < n_max:
                stack.append((new_seq, new_prod))


def verify_free_claim(
    s0: GeneratingSet, n_max: int, budget: int = DEFAULT_SEQUENCE_BUDGET
) -> VerificationReport:
    """Exhaustively check all products of up to n_max generators.

    Sequences run over the set together with its formal inverses, never
    stepping onto the formal inverse of the previous factor.  Every
    product must stay away from the identity and keep the suffix of its
    last factor:

    * odd k = 2l+1: reduced length >= 2l+n and the last l+1 letters
      match the last factor;
    * even k = 2l: length never decreases, and the last l (inverse
      factor) or l+1 (direct factor) letters match the last factor.

    Admissibility is formal (by position in the symmetrized list), so a
    degenerate set containing a word and its inverse as distinct members
    is caught rather than skipped.  At most ``budget`` sequences are checked.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    gens = [w.letters for w in s0.symmetrized()]
    rank = s0.claimed_rank
    inverse_of = list(range(rank, 2 * rank)) + list(range(rank))
    l = s0.half_length
    odd = s0.k % 2 == 1

    checked = 0
    min_len: Optional[int] = None
    for seq, prod, new_prod in _products(gens, inverse_of, s0.sig.r, n_max):
        if checked >= budget:
            return VerificationReport(
                passed=True,
                complete=False,
                checked=checked,
                n_max=n_max,
                min_product_length=min_len,
                message=f"budget of {budget} sequences exceeded; partial result",
            )
        checked += 1
        if min_len is None or len(new_prod) < min_len:
            min_len = len(new_prod)

        n = len(seq)
        i = seq[-1]
        g = gens[i]
        failure = None
        if not new_prod:
            failure = "product reduces to the identity"
        elif odd:
            if len(new_prod) < 2 * l + n:
                failure = f"product length {len(new_prod)} < {2 * l + n}"
            elif new_prod[-(l + 1):] != g[-(l + 1):]:
                failure = "last l+1 letters differ from the last factor"
        else:
            if len(new_prod) < len(prod):
                failure = "product length decreased"
            else:
                suffix = l + 1 if i < rank else l
                if new_prod[-suffix:] != g[-suffix:]:
                    failure = f"last {suffix} letters differ from the last factor"
        if failure is not None:
            witness = tuple(word_to_str(Word(gens[j], s0.sig)) for j in seq)
            return VerificationReport(
                passed=False,
                complete=False,
                checked=checked,
                n_max=n_max,
                min_product_length=min_len,
                counterexample=witness,
                message=failure,
            )

    return VerificationReport(
        passed=True,
        complete=True,
        checked=checked,
        n_max=n_max,
        min_product_length=min_len,
        message="all admissible products stayed free of the identity",
    )


def decode_factorizations(
    g: Word, palindromes: Sequence[Word], l: int
) -> list[tuple[tuple[Word, ...], Word]]:
    """All factorizations g = s_1..s_n t found by greedy suffix stripping.

    Only the short remainder t is searched; each factor s_i is then
    forced, because the last l+1 letters of the running product are the
    last l+1 letters of its final factor and a palindrome is determined
    by that suffix.
    """
    sig = g.sig
    r = sig.r
    palindrome_set = {w.letters for w in palindromes}
    results = []
    for t_letters in _ball_words(sig, l):
        t = Word(t_letters, sig)
        p = _multiply_raw(g.letters, _inverse_raw(t_letters, r), r)
        factors: list[Word] = []
        ok = True
        while p:
            if len(p) < l + 1:
                ok = False
                break
            suffix = p[-(l + 1):]
            candidate = suffix[:0:-1] + suffix
            if candidate not in palindrome_set:
                ok = False
                break
            s = Word(candidate, sig)
            if factors and factors[-1].letters == _inverse_raw(candidate, r):
                ok = False
                break
            stripped = _multiply_raw(p, _inverse_raw(candidate, r), r)
            if len(stripped) >= len(p):
                ok = False
                break
            factors.append(s)
            p = stripped
        if ok:
            results.append((tuple(reversed(factors)), t))
    return results


def verify_coset_factorization(
    d: int, k: int, max_length: int, budget: int = DEFAULT_SEQUENCE_BUDGET
) -> VerificationReport:
    """Check unique factorization g = s_1..s_n t over length-k palindromes.

    Here d is even, k = 2l+1 odd, s_i runs over all length-k palindromes
    with s_{i+1} != s_i^-1, and t has length at most l.  Every group
    element of length <= max_length must admit exactly one such
    factorization; a forward enumeration of all products is cross-checked
    against the suffix-stripping decoder.
    """
    if d % 2 != 0:
        raise ValueError(f"d must be even, got {d}")
    if k % 2 != 1:
        raise ValueError(f"k must be odd, got {k}")
    sig = FreeProductSignature(d // 2, 0)
    l = k // 2
    palindromes = _all_palindromes(sig, k)
    pal_letters = [w.letters for w in palindromes]
    inverse_of = [pal_letters.index(_inverse_raw(w, sig.r)) for w in pal_letters]
    remainders = _ball_words(sig, l)
    found: dict[tuple[int, ...], list] = {w: [] for w in _ball_words(sig, max_length)}

    # Products only grow (length >= 2l+n), so products of more than n_cap
    # palindromes cannot re-enter the target ball after multiplying by a
    # remainder of length <= l.
    n_cap = max(0, max_length - l)
    checked = 0
    prefixes = chain([((), (), ())], _products(pal_letters, inverse_of, sig.r, n_cap))
    for seq, _, prod in prefixes:
        for t in remainders:
            if checked >= budget:
                return VerificationReport(
                    passed=True,
                    complete=False,
                    checked=checked,
                    n_max=n_cap,
                    message=f"budget of {budget} products exceeded; partial result",
                )
            checked += 1
            g = _multiply_raw(prod, t, sig.r)
            if g in found:
                found[g].append((seq, t))

    for g_letters, factorizations in sorted(found.items()):
        g = Word(g_letters, sig)
        if len(factorizations) != 1:
            return VerificationReport(
                passed=False,
                complete=True,
                checked=checked,
                n_max=n_cap,
                counterexample=(word_to_str(g),),
                message=f"{len(factorizations)} factorizations for {word_to_str(g)}",
            )
        decoded = decode_factorizations(g, palindromes, l)
        seq, t = factorizations[0]
        expected = (tuple(Word(pal_letters[i], sig) for i in seq), Word(t, sig))
        if decoded != [expected]:
            return VerificationReport(
                passed=False,
                complete=True,
                checked=checked,
                n_max=n_cap,
                counterexample=(word_to_str(g),),
                message="suffix-stripping decoder disagrees with enumeration",
            )

    return VerificationReport(
        passed=True,
        complete=True,
        checked=checked,
        n_max=n_cap,
        message=f"unique factorization for all {len(found)} elements of length <= {max_length}",
    )
