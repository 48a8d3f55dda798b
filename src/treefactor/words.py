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
# Verification: bounded brute force, a certificate for every n, decoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a check that counts ``checked`` items of its ``unit``."""

    passed: bool
    complete: bool
    checked: int
    n_max: int
    min_product_length: Optional[int] = None
    counterexample: tuple[str, ...] = field(default_factory=tuple)
    message: str = ""
    unit: str = "sequences"

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        scope = f"n <= {self.n_max}" if self.complete else f"n <= {self.n_max}, INCOMPLETE"
        extra = f"; counterexample {' . '.join(self.counterexample)}" if self.counterexample else ""
        return f"{status} ({scope}, {self.checked} {self.unit} checked){extra}"


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of ``certify_free_claim``: a complete PASS holds for every n."""

    passed: bool
    complete: bool
    checked: int  # transitions
    states: int
    counterexample: tuple[str, ...] = field(default_factory=tuple)
    message: str = ""

    @property
    def verdict(self) -> str:
        if not self.passed:
            return "FAIL"
        return "PASS" if self.complete else "INCOMPLETE"

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        scope = "every n, " if self.complete else "INCOMPLETE, " if self.passed else ""
        extra = f"; counterexample {' . '.join(self.counterexample)}" if self.counterexample else ""
        return f"{status} ({scope}{self.states} states, {self.checked} transitions checked){extra}"


def _admissible(s0: GeneratingSet) -> tuple[list[tuple[int, ...]], list[int]]:
    # The set followed by its formal inverses, and the position of each
    # factor's formal inverse.  Admissibility is formal (by position), so a
    # degenerate set containing a word and its inverse as distinct members
    # is caught rather than skipped.
    rank = s0.claimed_rank
    return [w.letters for w in s0.symmetrized()], list(range(rank, 2 * rank)) + list(range(rank))


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

    At most ``budget`` sequences are checked.  ``certify_free_claim``
    proves the same laws for every n.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    gens, inverse_of = _admissible(s0)
    rank = s0.claimed_rank
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


def certify_free_claim(
    s0: GeneratingSet, budget: int = DEFAULT_SEQUENCE_BUDGET
) -> CertificateReport:
    """Prove the suffix and length laws of ``verify_free_claim`` for
    products of every length n, by a search over finitely many states.

    A state is (the last k letters of a product, the index of its last
    factor); the search starts from each factor alone.  A transition
    appends an admissible factor g_j, which cancels c letters.  It fails
    if c > l, or if the new product's last sigma letters differ from
    g_j's, with sigma = l+1, except l for inverse factors at even k.

    While c <= l every product keeps at least k letters and 2c <= k, so a
    state holds the product's true last k letters and these determine the
    next state.  Each step adds k - 2c >= 0 letters (>= 1 for odd k), so
    the identity is never reached and the odd-k length 2l+n follows.  The
    search is breadth-first and ends when no new state appears; a PASS
    then implies that ``verify_free_claim`` passes at every n_max, and a
    counterexample has the fewest factors of any.  At most ``budget``
    transitions are checked.
    """
    gens, inverse_of = _admissible(s0)
    rank, k, l, r = s0.claimed_rank, s0.k, s0.half_length, s0.sig.r
    sigma = [l + 1 if k % 2 == 1 or i < rank else l for i in range(2 * rank)]
    # cancels[j][t] cancels g_j[t], so c counts the matches of
    # product[-1], product[-2], ... against cancels[j][0], cancels[j][1], ...
    cancels = [tuple(-x if abs(x) <= r else x for x in g[: l + 1]) for g in gens]
    parent: dict[tuple, Optional[tuple]] = {(g, i): None for i, g in enumerate(gens)}
    queue = list(parent)
    checked = 0
    for state in queue:  # the queue grows while it is read
        s, i = state
        for j, g in enumerate(gens):
            if j == inverse_of[i]:
                continue
            if checked >= budget:
                return CertificateReport(
                    passed=True,
                    complete=False,
                    checked=checked,
                    states=len(parent),
                    message=f"budget of {budget} transitions exceeded; partial result",
                )
            checked += 1
            cancel = cancels[j]
            if s[-1] != cancel[0]:
                continue  # c = 0: the product ends in g_j, a start state
            c = 1
            while c <= l and s[-1 - c] == cancel[c]:
                c += 1
            new = (s[: k - c] + g[c:])[-k:]
            if c > l:
                failure = f"factor cancels more than l = {l} letters"
            elif new[-sigma[j]:] != g[-sigma[j]:]:
                failure = f"last {sigma[j]} letters differ from the last factor"
            else:
                if (new, j) not in parent:
                    parent[new, j] = state
                    queue.append((new, j))
                continue
            seq = [j]
            back: Optional[tuple] = state
            while back is not None:
                seq.append(back[1])
                back = parent[back]
            return CertificateReport(
                passed=False,
                complete=False,
                checked=checked,
                states=len(parent),
                counterexample=tuple(word_to_str(Word(gens[x], s0.sig)) for x in reversed(seq)),
                message=failure,
            )
    return CertificateReport(
        passed=True,
        complete=True,
        checked=checked,
        states=len(parent),
        message="the suffix and length laws hold for products of every length",
    )


def _decode_letters(
    g: tuple[int, ...],
    palindromes: frozenset,
    l: int,
    r: int,
    remainders: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
) -> list[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
    # The core of decode_factorizations on letter tuples; ``remainders``
    # pairs each word t of length <= l with its inverse.  Stripping s from
    # p cancels the l+1 letters they share, so p shrinks.  Hence no factor
    # is decoded next to its inverse: if p s^-1 ended in the last l+1
    # letters of s^-1, then p = (p s^-1) s would be shorter than p s^-1.
    results = []
    for t, t_inv in remainders:
        p = _multiply_raw(g, t_inv, r)
        factors: list[tuple[int, ...]] = []
        while p:
            if len(p) < l + 1:
                break
            suffix = p[-(l + 1):]
            s = suffix[:0:-1] + suffix
            if s not in palindromes:
                break
            factors.append(s)
            p = _multiply_raw(p, _inverse_raw(s, r), r)
        else:
            results.append((tuple(reversed(factors)), t))
    return results


def decode_factorizations(
    g: Word, palindromes: Sequence[Word], l: int
) -> list[tuple[tuple[Word, ...], Word]]:
    """All factorizations g = s_1..s_n t found by greedy suffix stripping.

    Only the short remainder t is searched; each factor s_i is then
    forced, because the last l+1 letters of the running product are the
    last l+1 letters of its final factor and a palindrome is determined
    by that suffix.  Where ``certify_free_claim`` passes on the
    palindromes, this finds every factorization.
    """
    sig = g.sig
    remainders = [(t, _inverse_raw(t, sig.r)) for t in _ball_words(sig, l)]
    found = _decode_letters(
        g.letters, frozenset(w.letters for w in palindromes), l, sig.r, remainders
    )
    return [
        (tuple(Word(s, sig) for s in factors), Word(t, sig)) for factors, t in found
    ]


def verify_coset_factorization(
    d: int, k: int, max_length: int, budget: int = DEFAULT_SEQUENCE_BUDGET
) -> VerificationReport:
    """Check unique factorization g = s_1..s_n t over length-k palindromes.

    Here d is even, k = 2l+1 odd, s_i runs over all length-k palindromes
    with s_{i+1} != s_i^-1, and t has length at most l.  Every group
    element of length <= max_length must admit exactly one such
    factorization.  ``certify_free_claim`` first proves the suffix law for
    every n on ``build_generators(d, k)``, whose symmetrized set is exactly
    the palindromes; the suffix-stripping decoder is then complete, and
    each element of the ball is decoded.  One counter of certificate
    transitions plus elements decoded stops the check after ``budget``.
    """
    if d % 2 != 0:
        raise ValueError(f"d must be even, got {d}")
    if k % 2 != 1:
        raise ValueError(f"k must be odd, got {k}")
    gs = build_generators(d, k)
    sig, l = gs.sig, gs.half_length
    # |s_1..s_n| >= 2l+n and |t| <= l, so a factorization of an element of
    # length <= max_length has at most max_length - l factors.
    n_cap = max(0, max_length - l)

    def report(passed: bool, complete: bool, message: str, counterexample=()) -> VerificationReport:
        return VerificationReport(
            passed=passed,
            complete=complete,
            checked=checked,
            n_max=n_cap,
            counterexample=tuple(counterexample),
            message=message,
            unit="items",
        )

    certificate = certify_free_claim(gs, budget)
    checked = certificate.checked
    if not certificate.passed:
        return report(False, False, f"certificate failed: {certificate.message}",
                      certificate.counterexample)
    palindromes = frozenset(w.letters for w in gs.symmetrized())
    remainders = [(t, _inverse_raw(t, sig.r)) for t in _ball_words(sig, l)]
    targets = _ball_words(sig, max_length)
    # An unfinished certificate has used the whole budget, so it decodes nothing.
    for g in targets:
        if checked >= budget:
            return report(True, False, f"budget of {budget} items exceeded; partial result")
        checked += 1
        found = len(_decode_letters(g, palindromes, l, sig.r, remainders))
        if found != 1:
            text = word_to_str(Word(g, sig))
            return report(False, True, f"{found} factorizations for {text}", (text,))
    message = f"unique factorization for all {len(targets)} elements of length <= {max_length}"
    return report(True, True, message)
