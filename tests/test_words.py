import json
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treefactor.tree import ball_size
from treefactor.words import (
    CONSTRUCTION_EVEN_K,
    DEFAULT_SEQUENCE_BUDGET,
    FreeProductSignature,
    GeneratingSet,
    Word,
    _ball_words,
    build_generators,
    decode_factorizations,
    expected_rank,
    inverse,
    is_palindrome,
    multiply,
    reduce,
    verify_coset_factorization,
    verify_free_claim,
    word_from_str,
    word_to_str,
)

F2 = FreeProductSignature(2, 0)  # degree 4, free of rank 2
MIXED = FreeProductSignature(2, 1)  # degree 5, one order-2 generator
INV3 = FreeProductSignature(0, 3)  # degree 3, all order 2


def scan_reduce(letters, sig):
    """Oracle: repeatedly cancel any adjacent inverse pair until fixpoint."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if sig.letter_inverse(out[i]) == out[i + 1]:
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
        assert MIXED.letter_inverse(3) == 3
        assert MIXED.letter_inverse(2) == -2


class TestReduce:
    def test_cancel_to_identity(self):
        assert reduce([1, -1], F2).is_identity

    def test_involution_squares_to_identity(self):
        assert reduce([3, 3], MIXED).is_identity

    def test_inner_cancellation(self):
        # oracle: scan-until-fixpoint cancellation
        seq = [1, 2, -2, 1]
        assert scan_reduce(seq, F2) == (1, 1)
        assert reduce(seq, F2).letters == (1, 1)

    def test_invalid_letter(self):
        with pytest.raises(ValueError):
            reduce([5], F2)

    def test_invalid_letter_rejected_before_cancelling(self):
        # [5, 5] would cancel to the identity if reduced unchecked
        with pytest.raises(ValueError, match="letter 5 out of range"):
            reduce([5, 5], F2)

    @given(st.data())
    def test_matches_scan_oracle(self, data):
        seq = data.draw(random_letters(F2))
        assert reduce(seq, F2).letters == scan_reduce(seq, F2)

    @given(st.data())
    def test_matches_scan_oracle_with_involutions(self, data):
        seq = data.draw(random_letters(MIXED))
        assert reduce(seq, MIXED).letters == scan_reduce(seq, MIXED)

    @given(st.data())
    def test_idempotent(self, data):
        seq = data.draw(random_letters(MIXED))
        w = reduce(seq, MIXED)
        assert reduce(w.letters, MIXED) == w


class TestMultiplyInverse:
    def test_identity_element(self):
        w = reduce([1, 2], F2)
        e = Word.identity(F2)
        assert multiply(e, w) == w
        assert multiply(w, e) == w

    def test_product_reduces(self):
        # oracle: reduce on concatenation
        w1 = reduce([1, 2], F2)
        w2 = reduce([-2, 1], F2)
        assert multiply(w1, w2).letters == (1, 1)
        assert multiply(w1, w2) == reduce(w1.letters + w2.letters, F2)

    def test_signature_mismatch(self):
        with pytest.raises(ValueError):
            multiply(Word.identity(F2), Word.identity(MIXED))

    def test_inverse_examples(self):
        assert inverse(reduce([1, 2], F2)).letters == (-2, -1)
        assert inverse(Word.identity(F2)).is_identity
        # order-2 letters are their own inverses
        assert inverse(reduce([3, 1], MIXED)).letters == (-1, 3)

    @given(st.data())
    def test_inverse_cancels(self, data):
        w = reduce(data.draw(random_letters(MIXED)), MIXED)
        assert multiply(w, inverse(w)).is_identity
        assert multiply(inverse(w), w).is_identity

    @given(st.data())
    def test_inverse_involution(self, data):
        w = reduce(data.draw(random_letters(MIXED)), MIXED)
        assert inverse(inverse(w)) == w

    @given(st.data())
    def test_length_subadditive(self, data):
        w1 = reduce(data.draw(random_letters(MIXED)), MIXED)
        w2 = reduce(data.draw(random_letters(MIXED)), MIXED)
        assert len(multiply(w1, w2)) <= len(w1) + len(w2)

    @given(st.data())
    def test_length_parity_without_involutions(self, data):
        # cancellations remove letters two at a time
        w1 = reduce(data.draw(random_letters(F2)), F2)
        w2 = reduce(data.draw(random_letters(F2)), F2)
        assert (len(multiply(w1, w2)) - len(w1) - len(w2)) % 2 == 0


class TestPalindromes:
    def test_examples(self):
        assert is_palindrome(reduce([1, 2, 1], F2))
        assert not is_palindrome(reduce([1, 2], F2))
        assert is_palindrome(Word.identity(F2))

    def test_sign_matters(self):
        assert not is_palindrome(reduce([1, 2, -1], F2))

    @given(st.data())
    def test_inverse_of_palindrome_is_palindrome(self, data):
        seq = data.draw(st.lists(st.sampled_from(F2.alphabet()), min_size=1, max_size=7))
        w = reduce(seq, F2)
        mirrored = reduce(w.letters + w.letters[-2::-1], F2)
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

    def test_generating_set_json(self):
        gs = build_generators(3, 2)
        payload = json.loads(gs.to_json())
        assert payload["schema"] == 1
        assert payload["d"] == 3
        assert payload["rank"] == 2
        assert payload["elements"] == ["a2a1", "a3a1"]


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
                    if not (w and sig.letter_inverse(w[-1]) == x)
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
        w = reduce([1, 2, 1], F2)
        with pytest.raises(ValueError):
            GeneratingSet((w, inverse(w)), 3, 2, "odd-k-even-d", F2)


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
        w = reduce([1, 2, 1], F2)
        v = inverse(w)
        bad = GeneratingSet.__new__(GeneratingSet)
        object.__setattr__(bad, "elements", (w, v))
        object.__setattr__(bad, "k", 3)
        object.__setattr__(bad, "claimed_rank", 2)
        object.__setattr__(bad, "construction", "odd-k-even-d")
        object.__setattr__(bad, "sig", F2)
        report = verify_free_claim(bad, 2)
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
        back = tuple(sig.letter_inverse(x) for x in reversed(center))
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


class TestCosetFactorization:
    def test_short_elements_factor_as_themselves(self):
        report = verify_coset_factorization(4, 3, 1)
        assert report.passed
        assert "5 elements" in report.message  # |B_1| = 5 in T_4

    def test_palindromes_factor_with_empty_remainder(self):
        gs = build_generators(4, 3)
        for w in gs.symmetrized():
            found = decode_factorizations(w, list(gs.symmetrized()), 1)
            assert found == [((w,), Word.identity(F2))]

    def test_depth_three(self):
        report = verify_coset_factorization(4, 3, 3)
        assert report.passed and report.complete

    def test_parity_preconditions(self):
        with pytest.raises(ValueError):
            verify_coset_factorization(3, 3, 2)
        with pytest.raises(ValueError):
            verify_coset_factorization(4, 2, 2)


VERIFIERS = {
    "free-claim": lambda budget: verify_free_claim(build_generators(3, 3), 3, budget=budget),
    "coset": lambda budget: verify_coset_factorization(4, 3, 4, budget=budget),
}


class TestBudgetRule:
    """Both verifiers stop after ``budget`` items and report that many."""

    @pytest.mark.parametrize("name", sorted(VERIFIERS))
    @pytest.mark.parametrize("budget", [0, 10])
    def test_reports_exactly_the_budget(self, name, budget):
        report = VERIFIERS[name](budget)
        assert report.checked == budget
        assert report.passed and not report.complete
        assert "budget" in report.message

    @pytest.mark.parametrize("name, complete_count", [("free-claim", 186), ("coset", 7985)])
    def test_a_budget_of_the_complete_count_completes(self, name, complete_count):
        assert VERIFIERS[name](DEFAULT_SEQUENCE_BUDGET).checked == complete_count
        report = VERIFIERS[name](complete_count)
        assert report.passed and report.complete
        assert report.checked == complete_count
        assert not VERIFIERS[name](complete_count - 1).complete
