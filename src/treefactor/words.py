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

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

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


def _letter_rank(letter: int) -> int:
    # a1 < a1^-1 < a2 < a2^-1 < ... ; increasing in the letter over positive letters.
    return 2 * letter - 1 if letter > 0 else -2 * letter


def _letters_sort_key(letters: tuple[int, ...]) -> tuple:
    # Shorter words first, then letter by letter in rank order.
    return (len(letters), tuple(map(_letter_rank, letters)))


def _sorted_letters(words: Iterable[tuple[int, ...]], r: int) -> list[tuple[int, ...]]:
    """``words`` in ``_letters_sort_key`` order, without a Python key per word:
    a stable sort by length after a lexicographic sort of the rank tuples."""
    if r == 0:  # every letter is positive, so the letters sort as their ranks do
        return sorted(sorted(words), key=len)
    by_rank = {tuple(map(_letter_rank, w)): w for w in words}
    return [by_rank[ranks] for ranks in sorted(sorted(by_rank), key=len)]


def _check_reduced(letters: tuple[int, ...], sig: FreeProductSignature) -> None:
    for x in letters:
        sig.validate_letter(x)
    if letters != _multiply_raw((), letters, sig.r):
        raise ValueError(f"letters {letters} are not in reduced form")


@dataclass(frozen=True)
class Word:
    """A group element in reduced form; also a d-regular-tree vertex address."""

    letters: tuple[int, ...]
    sig: FreeProductSignature

    def __post_init__(self):
        _check_reduced(self.letters, self.sig)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_to_str(self)

    def sort_key(self) -> tuple:
        return _letters_sort_key(self.letters)

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
    return _letters_to_str(w.letters)


def _letters_to_str(letters: tuple[int, ...]) -> str:
    if not letters:
        return "e"
    return "".join(f"a{x}" if x > 0 else f"A{-x}" for x in letters)


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


def _admissible(s0: GeneratingSet) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
    # The set followed by its formal inverses, the position of each factor's
    # formal inverse, and the length of the suffix a product must share with
    # its last factor: l+1, except l for inverse factors at even k.
    # Admissibility is formal (by position), so a degenerate set containing a
    # word and its inverse as distinct members is caught rather than skipped.
    rank, l = s0.claimed_rank, s0.half_length
    inverse_of = list(range(rank, 2 * rank)) + list(range(rank))
    sigma = [l + 1 if s0.k % 2 == 1 or i < rank else l for i in range(2 * rank)]
    return [w.letters for w in s0.symmetrized()], inverse_of, sigma


# Parents expanded at once by ``verify_free_claim``; this bounds its working
# memory whatever the size of a level.
FREE_CLAIM_CHUNK = 256


class _Factors:
    """``_admissible`` as arrays: each factor's letters and inverted
    letters, the index of its formal inverse and its suffix length."""

    def __init__(self, s0: GeneratingSet):
        gens, inverse_of, sigma = _admissible(s0)
        self.letters = np.array(gens, dtype=np.min_scalar_type(-s0.sig.num_generators))
        self.inverted = np.where(np.abs(self.letters) <= s0.sig.r, -self.letters, self.letters)
        self.inverse_of = np.array(inverse_of)
        self.sigma = np.array(sigma)


class _Level:
    """A chunk of admissible sequences of one length, in level order: each
    sequence's factor indices, its full reduced product right-aligned in a
    zero-padded row, the product's length and its parent's product length."""

    def __init__(self, seq: np.ndarray, prod: np.ndarray, length: np.ndarray,
                 parent_length: np.ndarray):
        self.seq, self.prod, self.length, self.parent_length = seq, prod, length, parent_length

    def __getitem__(self, rows: slice) -> "_Level":
        return _Level(self.seq[rows], self.prod[rows], self.length[rows], self.parent_length[rows])


def _children(parents: _Level, f: _Factors) -> _Level:
    """Each parent followed by every factor but the formal inverse of its
    last one, in that order, with the product ``_multiply_raw`` forms:
    g_j cancels c letters, c being the number of leading matches of the
    parent's letters read backwards against g_j's inverted letters, and
    the child is prod[:len-c] + g_j[c:]."""
    m, width = parents.prod.shape
    k = f.letters.shape[1]
    allowed = np.ones((m, len(f.letters)), dtype=bool)
    if parents.seq.shape[1]:
        allowed[np.arange(m), f.inverse_of[parents.seq[:, -1]]] = False
    p, j = np.nonzero(allowed)
    c = np.zeros(len(p), dtype=np.intp)
    alive = np.ones(len(p), dtype=bool)
    for t in range(min(k, width)):  # padding 0 matches no letter
        alive &= parents.prod[p, width - 1 - t] == f.inverted[j, t]
        if not alive.any():
            break
        c += alive
    prod = np.concatenate([parents.prod.take(p, axis=0), f.letters.take(j, axis=0)], axis=1)
    for cancelled in range(1, int(c.max()) + 1):
        # The parent's kept letters move 2c places right, next to g_j[c:].
        rows = np.nonzero(c == cancelled)[0]
        shift = 2 * cancelled
        end = min(width + shift, width + k)
        prod[rows, shift:end] = prod[rows, : end - shift]
        prod[rows, :shift] = 0
        prod[rows, width + cancelled:] = f.letters[j[rows], cancelled:]
    seq = np.concatenate([parents.seq.take(p, axis=0), j[:, None].astype(parents.seq.dtype)], axis=1)
    length = parents.length[p]
    return _Level(seq, prod, length + k - 2 * c, length)


def _level_chunks(f: _Factors, n: int):
    """The admissible sequences of n factors in level order, in chunks of
    the children of at most ``FREE_CLAIM_CHUNK`` parents.  The shorter
    levels are streamed again rather than stored, so memory stays flat."""
    if n == 0:
        empty = np.zeros(1, dtype=np.intp)
        yield _Level(np.zeros((1, 0), dtype=np.min_scalar_type(len(f.letters))),
                     np.zeros((1, 0), dtype=f.letters.dtype), empty, empty)
        return
    for level in _level_chunks(f, n - 1):
        for start in range(0, len(level.length), FREE_CLAIM_CHUNK):
            yield _children(level[start:start + FREE_CLAIM_CHUNK], f)


def _free_claim_failure(level: _Level, f: _Factors, odd: bool, l: int) -> np.ndarray:
    """Which sequences of a chunk break a law of ``verify_free_claim``; an
    empty product breaks the suffix law, as sigma >= 1."""
    n = level.seq.shape[1]
    j = level.seq[:, -1]
    bad = level.length < 2 * l + n if odd else level.length < level.parent_length
    k = f.letters.shape[1]
    for s in range(1, l + 2):  # the letter s places from the end; padding 0 matches none
        bad |= (s <= f.sigma[j]) & (level.prod[:, -s] != f.letters[j, k - s])
    return bad


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

    The sequences are checked level by level: by length, then by their
    factor indices, so a counterexample has the fewest factors of any and
    a partial run covers the first ``budget`` sequences in that order.
    Each product is formed in numpy from its parent's full reduced
    product, ``FREE_CLAIM_CHUNK`` parents at a time.  ``certify_free_claim``
    proves the same laws for every n.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    f = _Factors(s0)
    l = s0.half_length
    odd = s0.k % 2 == 1

    checked = 0
    min_len: Optional[int] = None
    for n in range(1, n_max + 1):
        for level in _level_chunks(f, n):
            take = min(len(level.length), budget - checked)
            bad = _free_claim_failure(level[:take], f, odd, l)
            failed = bool(bad.any())
            seen = int(np.argmax(bad)) + 1 if failed else take
            checked += seen
            if seen:
                shortest = int(level.length[:seen].min())
                min_len = shortest if min_len is None else min(min_len, shortest)
            if failed:
                seq = [int(x) for x in level.seq[seen - 1]]
                new_len = int(level.length[seen - 1])
                if new_len == 0:
                    failure = "product reduces to the identity"
                elif odd:
                    if new_len < 2 * l + n:
                        failure = f"product length {new_len} < {2 * l + n}"
                    else:
                        failure = "last l+1 letters differ from the last factor"
                elif new_len < level.parent_length[seen - 1]:
                    failure = "product length decreased"
                else:
                    failure = f"last {f.sigma[seq[-1]]} letters differ from the last factor"
                factors = s0.symmetrized()
                return VerificationReport(
                    passed=False,
                    complete=False,
                    checked=checked,
                    n_max=n_max,
                    min_product_length=min_len,
                    counterexample=tuple(word_to_str(factors[x]) for x in seq),
                    message=failure,
                )
            if take < len(level.length):
                return VerificationReport(
                    passed=True,
                    complete=False,
                    checked=checked,
                    n_max=n_max,
                    min_product_length=min_len,
                    message=f"budget of {budget} sequences exceeded; partial result",
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
    gens, inverse_of, sigma = _admissible(s0)
    k, l, r = s0.k, s0.half_length, s0.sig.r
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
    # All factorizations g = s_1..s_n t of the letters g found by greedy
    # suffix stripping.  Only the remainder t is searched: ``remainders``
    # pairs each word t of length <= l with its inverse.  Each factor is
    # then forced, since a palindrome is determined by its last l+1
    # letters, so where ``certify_free_claim`` passes on the palindromes
    # this finds every factorization.  Stripping s from p cancels the l+1
    # letters they share, so p shrinks.  Hence no factor is decoded next to
    # its inverse: if p s^-1 ended in the last l+1 letters of s^-1, then
    # p = (p s^-1) s would be shorter than p s^-1.
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
