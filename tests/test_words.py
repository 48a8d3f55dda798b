import random
import tracemalloc
from itertools import product
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treefactor import words
from treefactor.tree import ball_size
from treefactor.words import (
    CONSTRUCTION_EVEN_K,
    DEFAULT_SEQUENCE_BUDGET,
    FreeProductSignature,
    GeneratingSet,
    VerificationReport,
    Word,
    _admissible,
    _ball_words,
    _decode_letters,
    _inverse_raw,
    _level_chunks,
    _multiply_raw,
    build_generators,
    certify_free_claim,
    expected_rank,
    inverse,
    is_palindrome,
    multiply,
    verify_coset_factorization,
    verify_free_claim,
    word_from_str,
    word_to_str,
)

F2 = FreeProductSignature(2, 0)  # degree 4, free of rank 2
F3 = FreeProductSignature(3, 0)  # degree 6, free of rank 3
MIXED = FreeProductSignature(2, 1)  # degree 5, one order-2 generator
INV3 = FreeProductSignature(0, 3)  # degree 3, all order 2


def letter_inverse(sig, letter):
    """Inverse of a signed letter; order-2 letters are self-inverse."""
    return -letter if abs(letter) <= sig.r else letter


def scan_reduce(letters, sig):
    """Oracle: repeatedly cancel any adjacent inverse pair until fixpoint."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if letter_inverse(sig, out[i]) == out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def random_letters(draw_sig):
    alphabet = draw_sig.alphabet()
    return st.lists(st.sampled_from(alphabet), max_size=40)


class TestSignatureAndLetters:
    def test_degree(self):
        assert F2.degree == 4
        assert MIXED.degree == 5
        assert INV3.degree == 3

    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            FreeProductSignature(1, 0)

    def test_alphabet_order(self):
        assert MIXED.alphabet() == (1, -1, 2, -2, 3)

    def test_letter_validation(self):
        # order-2 letters never carry a negative sign
        with pytest.raises(ValueError):
            Word((3, -3), MIXED)

    def test_involution_inverse(self):
        assert inverse(Word((3,), MIXED)).letters == (3,)
        assert inverse(Word((2,), MIXED)).letters == (-2,)


class TestReduce:
    def test_cancel_to_identity(self):
        assert Word.from_letters([1, -1], F2) == Word.identity(F2)

    def test_involution_squares_to_identity(self):
        assert Word.from_letters([3, 3], MIXED) == Word.identity(MIXED)

    def test_inner_cancellation(self):
        # oracle: scan-until-fixpoint cancellation
        seq = [1, 2, -2, 1]
        assert scan_reduce(seq, F2) == (1, 1)
        assert Word.from_letters(seq, F2).letters == (1, 1)

    def test_invalid_letter(self):
        with pytest.raises(ValueError):
            Word.from_letters([5], F2)

    def test_invalid_letter_rejected_before_cancelling(self):
        # [5, 5] would cancel to the identity if reduced unchecked
        with pytest.raises(ValueError, match="letter 5 out of range"):
            Word.from_letters([5, 5], F2)

    @given(st.data())
    def test_matches_scan_oracle(self, data):
        seq = data.draw(random_letters(F2))
        assert Word.from_letters(seq, F2).letters == scan_reduce(seq, F2)

    @given(st.data())
    def test_matches_scan_oracle_with_involutions(self, data):
        seq = data.draw(random_letters(MIXED))
        assert Word.from_letters(seq, MIXED).letters == scan_reduce(seq, MIXED)

    @given(st.data())
    def test_idempotent(self, data):
        seq = data.draw(random_letters(MIXED))
        w = Word.from_letters(seq, MIXED)
        assert Word.from_letters(w.letters, MIXED) == w


class TestMultiplyInverse:
    def test_identity_element(self):
        w = Word.from_letters([1, 2], F2)
        e = Word.identity(F2)
        assert multiply(e, w) == w
        assert multiply(w, e) == w

    def test_product_reduces(self):
        # oracle: reduction of the concatenation
        w1 = Word.from_letters([1, 2], F2)
        w2 = Word.from_letters([-2, 1], F2)
        assert multiply(w1, w2).letters == (1, 1)
        assert multiply(w1, w2) == Word.from_letters(w1.letters + w2.letters, F2)

    def test_signature_mismatch(self):
        with pytest.raises(ValueError):
            multiply(Word.identity(F2), Word.identity(MIXED))

    def test_inverse_examples(self):
        assert inverse(Word.from_letters([1, 2], F2)).letters == (-2, -1)
        assert inverse(Word.identity(F2)) == Word.identity(F2)
        # order-2 letters are their own inverses
        assert inverse(Word.from_letters([3, 1], MIXED)).letters == (-1, 3)

    @given(st.data())
    def test_inverse_cancels(self, data):
        w = Word.from_letters(data.draw(random_letters(MIXED)), MIXED)
        assert multiply(w, inverse(w)).letters == ()
        assert multiply(inverse(w), w).letters == ()

    @given(st.data())
    def test_inverse_involution(self, data):
        w = Word.from_letters(data.draw(random_letters(MIXED)), MIXED)
        assert inverse(inverse(w)) == w

    @given(st.data())
    def test_length_subadditive(self, data):
        w1 = Word.from_letters(data.draw(random_letters(MIXED)), MIXED)
        w2 = Word.from_letters(data.draw(random_letters(MIXED)), MIXED)
        assert len(multiply(w1, w2)) <= len(w1) + len(w2)

    @given(st.data())
    def test_length_parity_without_involutions(self, data):
        # cancellations remove letters two at a time
        w1 = Word.from_letters(data.draw(random_letters(F2)), F2)
        w2 = Word.from_letters(data.draw(random_letters(F2)), F2)
        assert (len(multiply(w1, w2)) - len(w1) - len(w2)) % 2 == 0


class TestPalindromes:
    def test_examples(self):
        assert is_palindrome(Word.from_letters([1, 2, 1], F2))
        assert not is_palindrome(Word.from_letters([1, 2], F2))
        assert is_palindrome(Word.identity(F2))

    def test_sign_matters(self):
        assert not is_palindrome(Word.from_letters([1, 2, -1], F2))

    @given(st.data())
    def test_inverse_of_palindrome_is_palindrome(self, data):
        seq = data.draw(st.lists(st.sampled_from(F2.alphabet()), min_size=1, max_size=7))
        w = Word.from_letters(seq, F2)
        mirrored = Word.from_letters(w.letters + w.letters[-2::-1], F2)
        if is_palindrome(mirrored) and len(mirrored) % 2 == 1:
            assert is_palindrome(inverse(mirrored))
            # no order-2 elements in a free group: p != p^-1
            assert inverse(mirrored) != mirrored


class TestSerialization:
    def test_roundtrip(self):
        for text in ("e", "a1", "A1", "a1A2a1", "a3a1a3"):
            w = word_from_str(text, MIXED)
            assert word_to_str(w) == text

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            word_from_str("a1x", F2)
        with pytest.raises(ValueError):
            word_from_str("A3", MIXED)  # order-2 generator has no inverse form


class TestBuildGenerators:
    def test_rank_formula_odd_even(self):
        gs = build_generators(4, 3)
        assert gs.claimed_rank == 6
        assert len(gs.elements) == 6
        # the symmetrized set is the full palindrome family
        assert len(gs.symmetrized()) == 12

    def test_even_k_base_case(self):
        gs = build_generators(3, 2)
        assert {word_to_str(w) for w in gs.elements} == {"a2a1", "a3a1"}
        assert gs.construction == CONSTRUCTION_EVEN_K

    def test_even_k_nested(self):
        gs = build_generators(3, 4)
        assert gs.claimed_rank == 4

    def test_odd_d_odd_k(self):
        gs = build_generators(5, 3)
        assert gs.claimed_rank == expected_rank(5, 3) == 5 * 4 // 2  # d(d-1)^1/2
        assert all(len(w) == 3 for w in gs.elements)

    def test_odd_d_k1_refused(self):
        with pytest.raises(ValueError, match="edge bound"):
            build_generators(3, 1)

    def test_even_d_k1_allowed(self):
        gs = build_generators(4, 1)
        assert gs.claimed_rank == 2

    def test_symmetrized_equals_all_palindromes(self):
        # odd k, even d: the set plus inverses is exactly the reduced
        # palindromes of that length
        for d, k in ((4, 3), (4, 5), (6, 3)):
            gs = build_generators(d, k)
            sym = {w.letters for w in gs.symmetrized()}
            sig = gs.sig
            all_words = [()]
            for _ in range(k):
                all_words = [
                    w + (x,)
                    for w in all_words
                    for x in sig.alphabet()
                    if not (w and letter_inverse(sig, w[-1]) == x)
                ]
            pal = {w for w in all_words if w == w[::-1]}
            assert sym == pal
            assert len(pal) == d * (d - 1) ** (k // 2)

    def test_structure_invariants_grid(self):
        for d in (3, 4, 5, 6):
            for k in (2, 3, 4, 5, 6, 7):
                gs = build_generators(d, k)
                assert gs.claimed_rank == expected_rank(d, k)
                assert all(len(w) == k for w in gs.elements)

    def test_rejects_duplicate_or_inverse_members(self):
        w = Word.from_letters([1, 2, 1], F2)
        with pytest.raises(ValueError):
            GeneratingSet((w, inverse(w)), 3, 2, "odd-k-even-d", F2)


def injected_inverse_pair() -> GeneratingSet:
    """A 'generating set' holding a1a2a1 and its inverse as distinct members,
    built past the constructor's check that refuses it."""
    w = Word.from_letters([1, 2, 1], F2)
    bad = GeneratingSet.__new__(GeneratingSet)
    object.__setattr__(bad, "elements", (w, inverse(w)))
    object.__setattr__(bad, "k", 3)
    object.__setattr__(bad, "claimed_rank", 2)
    object.__setattr__(bad, "construction", "odd-k-even-d")
    object.__setattr__(bad, "sig", F2)
    return bad


def products(factors, inverse_of, r: int, n_max: int):
    """Oracle: every sequence of 1..n_max factor indices in which no factor
    is followed by its formal inverse ``inverse_of[i]``, depth-first, each
    with the reduced product before and after its last factor."""
    stack = [((), ())] if n_max > 0 else []
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


def scalar_verify_free_claim(gs: GeneratingSet, n_max: int, budget: int = DEFAULT_SEQUENCE_BUDGET,
                             level_order: bool = False) -> VerificationReport:
    """Oracle: ``verify_free_claim`` one sequence at a time on letter
    tuples, over the depth-first walk or, with ``level_order``, over the
    sequences sorted by length and then by factor indices."""
    gens, inverse_of, sigma = _admissible(gs)
    l = gs.half_length
    walk = products(gens, inverse_of, gs.sig.r, n_max)
    if level_order:
        walk = sorted(walk, key=lambda item: (len(item[0]), item[0]))
    checked = 0
    min_len = None
    for seq, prod, new_prod in walk:
        if checked >= budget:
            return VerificationReport(True, False, checked, n_max, min_len,
                                      message=f"budget of {budget} sequences exceeded; partial result")
        checked += 1
        min_len = len(new_prod) if min_len is None else min(min_len, len(new_prod))
        n, g = len(seq), gens[seq[-1]]
        suffix = sigma[seq[-1]]
        failure = None
        if not new_prod:
            failure = "product reduces to the identity"
        elif gs.k % 2 == 1:
            if len(new_prod) < 2 * l + n:
                failure = f"product length {len(new_prod)} < {2 * l + n}"
            elif new_prod[-suffix:] != g[-suffix:]:
                failure = "last l+1 letters differ from the last factor"
        elif len(new_prod) < len(prod):
            failure = "product length decreased"
        elif new_prod[-suffix:] != g[-suffix:]:
            failure = f"last {suffix} letters differ from the last factor"
        if failure is not None:
            witness = tuple(word_to_str(Word(gens[j], gs.sig)) for j in seq)
            return VerificationReport(False, False, checked, n_max, min_len, witness, failure)
    return VerificationReport(True, True, checked, n_max, min_len,
                              message="all admissible products stayed free of the identity")


class TestVerifyFreeClaim:
    def test_passes_small_cases(self):
        report = verify_free_claim(build_generators(4, 3), 3)
        assert report.passed and report.complete
        assert report.min_product_length == 3
        assert report.checked == 12 + 12 * 11 + 12 * 11 * 11

    def test_even_case_passes(self):
        report = verify_free_claim(build_generators(3, 2), 4)
        assert report.passed and report.complete

    def test_injected_inverse_pair_fails(self):
        # a word and its inverse smuggled in as distinct members collapse
        report = verify_free_claim(injected_inverse_pair(), 2)
        assert not report.passed
        assert report.counterexample

    def test_budget_marks_incomplete(self):
        report = verify_free_claim(build_generators(3, 3), 4, budget=50)
        assert report.checked == 50
        assert not report.complete
        assert report.passed  # nothing bad seen within the budget

    def test_depth_four_grid(self):
        # the largest case (d=5, k=5) would need 39.4M sequences, beyond
        # the default 1e7 budget, so it runs at depth 3 instead
        for d in (3, 4, 5):
            for k in (2, 3, 4, 5):
                n_max = 3 if (d, k) == (5, 5) else 4
                report = verify_free_claim(build_generators(d, k), n_max)
                assert report.passed and report.complete, (d, k)

    def test_over_budget_case_reports_partial(self):
        report = verify_free_claim(build_generators(5, 5), 4, budget=2000)
        assert report.passed and not report.complete
        assert "budget" in report.message

    def test_nmax_validation(self):
        with pytest.raises(ValueError):
            verify_free_claim(build_generators(3, 2), 0)


def random_generating_set(rng: random.Random, sig: FreeProductSignature, k: int, rank: int):
    """``rank`` random reduced words of length k, none equal to another's
    inverse or to its own."""
    words: list[tuple[int, ...]] = []
    while len(words) < rank:
        w: tuple[int, ...] = ()
        while len(w) < k:
            x = rng.choice(sig.alphabet())
            if not (w and letter_inverse(sig, w[-1]) == x):
                w += (x,)
        taken = set(words) | {inverse(Word(v, sig)).letters for v in words}
        if w not in taken and inverse(Word(w, sig)).letters != w:
            words.append(w)
    return GeneratingSet(tuple(Word(w, sig) for w in words), k, rank, "random", sig)


RANDOM_FAMILIES = pytest.mark.parametrize("sigs, ks", [
    ((F2, F3), (3, 5)),
    ((INV3, FreeProductSignature(0, 4)), (2, 4)),
], ids=["odd-k", "even-k"])


def random_sets(sigs, ks) -> list[GeneratingSet]:
    """240 random sets of one family, the same on every call: ranks 2 and 3,
    alternating signatures and lengths."""
    rng = random.Random(20171)
    return [
        random_generating_set(rng, sigs[trial % 2], ks[trial // 2 % 2], rank=2 + trial // 4 % 2)
        for trial in range(240)
    ]


class TestCertifyFreeClaim:
    """The finite-state certificate against the bounded brute force."""

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_grid_passes(self, d, k):
        report = certify_free_claim(build_generators(d, k))
        assert report.passed and report.complete, (d, k, report)
        assert report.verdict == "PASS"
        assert not report.counterexample
        assert str(report).startswith(f"PASS (every n, {report.states} states,")

    def test_state_counts(self):
        # (last k letters, last factor) pairs reachable in the closure
        assert certify_free_claim(build_generators(4, 3)).states == 36
        assert certify_free_claim(build_generators(4, 4)).states == 108
        assert certify_free_claim(build_generators(5, 5)).states == 1280

    def test_injected_inverse_pair_fails(self):
        report = certify_free_claim(injected_inverse_pair())
        assert not report.passed and not report.complete
        assert report.verdict == "FAIL"
        assert report.counterexample == ("a1a2a1", "A1A2A1")
        assert report.message == "factor cancels more than l = 1 letters"
        assert "; counterexample a1a2a1 . A1A2A1" in str(report)

    def test_budget_marks_incomplete(self):
        report = certify_free_claim(build_generators(5, 5), budget=50)
        assert report.passed and not report.complete
        assert report.checked == 50
        assert report.verdict == "INCOMPLETE"
        assert "INCOMPLETE" in str(report)

    def test_even_k_suffix_law_fails(self):
        # a1a2 . a2a3 = a1a3 cancels only l = 1 letter, but its last two
        # letters are not those of the last factor a2a3.
        gs = GeneratingSet((Word.from_letters([1, 2], INV3), Word.from_letters([2, 3], INV3)), 2, 2, "even-k", INV3)
        report = certify_free_claim(gs)
        assert not report.passed
        assert report.counterexample == ("a1a2", "a2a3")
        assert report.message == "last 2 letters differ from the last factor"
        brute = verify_free_claim(gs, 2)
        assert (brute.counterexample, brute.message) == (report.counterexample, report.message)

    @RANDOM_FAMILIES
    def test_agrees_with_brute_force_on_random_sets(self, sigs, ks):
        # A counterexample of the breadth-first certificate has the fewest
        # factors of any, so the brute force at n <= 4 fails exactly when
        # the certificate fails within 4 factors, and first at that depth.
        outcomes = {"pass": 0, "fail within 4": 0, "fail beyond 4": 0}
        for gs in random_sets(sigs, ks):
            certificate = certify_free_claim(gs)
            brute = verify_free_claim(gs, 4)
            assert certificate.complete == certificate.passed
            assert brute.complete == brute.passed
            n = len(certificate.counterexample)
            if certificate.passed:
                outcomes["pass"] += 1
                assert brute.passed
            elif n > 4:
                outcomes["fail beyond 4"] += 1
                assert brute.passed
            else:
                outcomes["fail within 4"] += 1
                assert not brute.passed
                assert len(brute.counterexample) == n
                assert not verify_free_claim(gs, n).passed
                assert n == 1 or verify_free_claim(gs, n - 1).passed
        assert outcomes["pass"] >= 20 and outcomes["fail within 4"] >= 20, outcomes


class TestLevelByLevel:
    """The numpy level-by-level verifier against the scalar oracles above."""

    @pytest.mark.parametrize("chunk", [1, 7, words.FREE_CLAIM_CHUNK])
    def test_products_are_the_reduced_products(self, monkeypatch, chunk):
        # Every sequence, in level order, with its product as _multiply_raw
        # forms it; injected_inverse_pair cancels factors completely.
        monkeypatch.setattr(words, "FREE_CLAIM_CHUNK", chunk)
        rng = random.Random(7)
        sets = [build_generators(4, 3), build_generators(3, 4), injected_inverse_pair()]
        sets += [random_generating_set(rng, sig, k, 2) for sig, k in ((F2, 1), (F3, 3), (INV3, 2))]
        for gs in sets:
            gens, inverse_of, _ = _admissible(gs)
            expected = sorted(((seq, new_prod) for seq, _, new_prod
                               in products(gens, inverse_of, gs.sig.r, 4)),
                              key=lambda item: (len(item[0]), item[0]))
            formed = []
            for n in range(1, 5):
                for level in _level_chunks(words._Factors(gs), n):
                    width = level.prod.shape[1]
                    assert width == n * gs.k
                    for seq, row, length in zip(level.seq, level.prod, level.length):
                        assert not row[: width - length].any()
                        formed.append((tuple(int(x) for x in seq),
                                       tuple(int(x) for x in row[width - length:])))
            assert formed == expected

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_grid_matches_depth_first_oracle(self, d, k):
        gs = build_generators(d, k)
        report = verify_free_claim(gs, 3)
        assert report.passed and report.complete
        assert report == scalar_verify_free_claim(gs, 3)

    @RANDOM_FAMILIES
    def test_random_sets_match_level_order_oracle(self, sigs, ks):
        failures = 0
        for gs in random_sets(sigs, ks):
            report = verify_free_claim(gs, 4)
            # The first failing sequence by (length, factor indices), with
            # the oracle's message, count and shortest product up to it.
            assert report == scalar_verify_free_claim(gs, 4, level_order=True)
            depth_first = scalar_verify_free_claim(gs, 4)
            assert (report.passed, report.complete) == (depth_first.passed, depth_first.complete)
            if report.passed:
                assert report == depth_first
            else:
                failures += 1
                assert len(report.counterexample) == len(certify_free_claim(gs).counterexample)
        assert failures >= 20

    @pytest.mark.parametrize("gs, n_max, budget", [
        (build_generators(4, 3), 3, DEFAULT_SEQUENCE_BUDGET),
        (build_generators(5, 5), 3, 2000),
        (injected_inverse_pair(), 3, DEFAULT_SEQUENCE_BUDGET),
        (GeneratingSet((Word.from_letters([1, 2], INV3), Word.from_letters([2, 3], INV3)), 2, 2, "even-k", INV3),
         4, DEFAULT_SEQUENCE_BUDGET),
    ], ids=["pass", "partial", "identity", "suffix"])
    def test_chunk_size_does_not_change_the_report(self, monkeypatch, gs, n_max, budget):
        reports = []
        for chunk in (1, 7, words.FREE_CLAIM_CHUNK):
            monkeypatch.setattr(words, "FREE_CLAIM_CHUNK", chunk)
            reports.append(verify_free_claim(gs, n_max, budget=budget))
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("d, k, n_max, chunk", [
        (3, 3, 4, 7), (5, 5, 3, words.FREE_CLAIM_CHUNK),
    ])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_budget_at_a_chunk_boundary(self, monkeypatch, d, k, n_max, chunk, offset):
        # Levels 1 and 2, then the children of the first chunk of level-2 parents.
        monkeypatch.setattr(words, "FREE_CLAIM_CHUNK", chunk)
        gs = build_generators(d, k)
        factors = 2 * gs.claimed_rank
        assert factors * (factors - 1) > chunk
        boundary = factors + factors * (factors - 1) + chunk * (factors - 1)
        report = verify_free_claim(gs, n_max, budget=boundary + offset)
        assert report.checked == boundary + offset
        assert report.passed and not report.complete
        if d == 3:  # the sorted oracle holds every sequence in memory
            assert report == scalar_verify_free_claim(gs, n_max, boundary + offset,
                                                      level_order=True)

    def test_memory_stays_flat(self):
        # numpy reports its buffers to tracemalloc; expanding the whole last
        # level at once peaks at about 33 MiB here, 256-parent chunks at 2.3 MiB.
        gs = build_generators(5, 5)
        tracemalloc.start()
        try:
            report = verify_free_claim(gs, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.complete
        assert peak <= 8 * 2**20, peak


class TestBallWords:
    """The breadth-first walk against every letter sequence of length at
    most R applied to the centre, reduced by the scanning oracle."""

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("involutions", [False, True])
    @pytest.mark.parametrize("radius", range(5))
    @pytest.mark.parametrize("center", [(), (1, 2, 1)])
    def test_matches_brute_force(self, d, involutions, radius, center):
        sig = FreeProductSignature(0, d) if involutions else FreeProductSignature(d // 2, d % 2)
        words = _ball_words(sig, radius, center)
        assert len(set(words)) == len(words) == ball_size(d, radius)
        back = tuple(letter_inverse(sig, x) for x in reversed(center))
        distances = [len(scan_reduce(back + w, sig)) for w in words]
        assert distances == sorted(distances)
        brute = {
            scan_reduce(center + seq, sig)
            for n in range(radius + 1)
            for seq in product(sig.alphabet(), repeat=n)
        }
        assert set(words) == brute

    def test_levels_extend_in_alphabet_order(self):
        assert _ball_words(FreeProductSignature(1, 1), 2) == [
            (),
            (1,), (-1,), (2,),
            (1, 1), (1, 2), (-1, -1), (-1, 2), (2, 1), (2, -1),
        ]


def forward_factorizations(d: int, k: int, max_length: int) -> dict:
    """Oracle: enumerate every product s_1..s_n t forward, over admissible
    palindromes s_i and remainders t of length <= l, and group the
    factorizations by the element of length <= max_length they give."""
    sig = FreeProductSignature(d // 2, 0)
    l = k // 2
    pals = [w.letters for w in build_generators(d, k).symmetrized()]
    inverse_of = [pals.index(inverse(Word(p, sig)).letters) for p in pals]
    found: dict = {g: [] for g in _ball_words(sig, max_length)}
    # Products only grow (length >= 2l+n), so more than max_length - l
    # factors cannot re-enter the ball after a remainder of length <= l.
    n_cap = max(0, max_length - l)
    prefixes = [((), (), ())] + list(products(pals, inverse_of, sig.r, n_cap))
    for seq, _, prod in prefixes:
        for t in _ball_words(sig, l):
            g = _multiply_raw(prod, t, sig.r)
            if g in found:
                found[g].append((tuple(pals[i] for i in seq), t))
    return found


def decode(g: tuple[int, ...], gs: GeneratingSet) -> list:
    """``_decode_letters`` over the symmetrized set and every short remainder."""
    sig, l = gs.sig, gs.half_length
    remainders = [(t, _inverse_raw(t, sig.r)) for t in _ball_words(sig, l)]
    palindromes = frozenset(w.letters for w in gs.symmetrized())
    return _decode_letters(g, palindromes, l, sig.r, remainders)


class TestCosetFactorization:
    def test_short_elements_factor_as_themselves(self):
        report = verify_coset_factorization(4, 3, 1)
        assert report.passed
        assert "5 elements" in report.message  # |B_1| = 5 in T_4

    def test_palindromes_factor_with_empty_remainder(self):
        gs = build_generators(4, 3)
        for w in gs.symmetrized():
            assert decode(w.letters, gs) == [((w.letters,), ())]

    def test_depth_three(self):
        report = verify_coset_factorization(4, 3, 3)
        assert report.passed and report.complete

    def test_parity_preconditions(self):
        with pytest.raises(ValueError):
            verify_coset_factorization(3, 3, 2)
        with pytest.raises(ValueError):
            verify_coset_factorization(4, 2, 2)

    @pytest.mark.parametrize("d, k, max_length", [(4, 3, 6), (6, 3, 4), (8, 3, 3)])
    def test_decoding_matches_forward_enumeration(self, d, k, max_length):
        oracle = forward_factorizations(d, k, max_length)
        gs = build_generators(d, k)
        for g, factorizations in oracle.items():
            assert sorted(decode(g, gs)) == sorted(factorizations), g
        for length in range(max_length + 1):
            expected = all(len(oracle[g]) == 1 for g in oracle if len(g) <= length)
            report = verify_coset_factorization(d, k, length)
            assert report.complete and report.passed == expected, (length, report)
            assert report.checked == certify_free_claim(gs).checked + ball_size(d, length)
            assert report.n_max == max(0, length - k // 2)
            assert f"all {ball_size(d, length)} elements" in report.message

    def test_length_one_words(self):
        # k = 1, l = 0: the factors are the letters, and every reduced word
        # is its own unique factorization.
        oracle = forward_factorizations(4, 1, 3)
        assert all(len(f) == 1 for f in oracle.values())
        assert verify_coset_factorization(4, 1, 3).passed


VERIFIERS = {
    "free-claim": lambda budget: verify_free_claim(build_generators(3, 3), 3, budget=budget),
    "certificate": lambda budget: certify_free_claim(build_generators(3, 3), budget=budget),
    "coset": lambda budget: verify_coset_factorization(4, 3, 4, budget=budget),
}


class TestBudgetRule:
    """Every verifier stops after ``budget`` items and reports that many."""

    @pytest.mark.parametrize("name", sorted(VERIFIERS))
    @pytest.mark.parametrize("budget", [0, 10])
    def test_reports_exactly_the_budget(self, name, budget):
        report = VERIFIERS[name](budget)
        assert report.checked == budget
        assert report.passed and not report.complete
        assert "budget" in report.message

    # The coset count is certificate transitions (396) plus elements decoded (161).
    @pytest.mark.parametrize("name, complete_count",
                             [("free-claim", 186), ("certificate", 60), ("coset", 557)])
    def test_a_budget_of_the_complete_count_completes(self, name, complete_count):
        assert VERIFIERS[name](DEFAULT_SEQUENCE_BUDGET).checked == complete_count
        report = VERIFIERS[name](complete_count)
        assert report.passed and report.complete
        assert report.checked == complete_count
        assert not VERIFIERS[name](complete_count - 1).complete

    def test_coset_budget_spans_certificate_and_decoding(self):
        # 396 transitions close the certificate; the rest go to decoding.
        report = VERIFIERS["coset"](400)
        assert report.checked == 400 and not report.complete
        assert "budget of 400 items exceeded" in report.message
