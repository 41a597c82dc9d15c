"""Frame construction, validation, Gram/projection duality, JSON formats."""

import itertools
import json

import numpy as np
import pytest

from framesel import frames
from framesel import (
    DiagonalSelector,
    FrameError,
    FrameFamily,
    compressed_gram,
    frame_from_dict,
    frame_to_dict,
    frame_to_projection,
    harmonic_frame,
    load_frame,
    modulated_harmonic_frame,
    projection_to_frame,
    rescale_norms,
    build_katz,
    certificate_to_dict,
    dichotomy_check,
    save_certificate,
    save_dichotomy_report,
    save_frame,
    select_subset,
    validate_frame,
)
from oracles import dft_frame_vectors


class TestConstruction:
    @pytest.mark.parametrize("k,N", [(1, 2), (1, 7), (2, 3), (4, 9), (8, 25), (3, 2)])
    def test_harmonic_is_exact_frame(self, k, N):
        F = harmonic_frame(k, N)
        assert F.m == k * N
        report = validate_frame(F)
        assert report.passed
        # exact unitary structure keeps both deviations at roundoff level
        assert report.norm_deviation < 1e-12
        assert report.parseval_deviation < 1e-12

    def test_norms_exactly_one_over_n(self):
        F = harmonic_frame(3, 4)
        norms2 = np.sum(np.abs(F.vectors) ** 2, axis=1)
        assert np.allclose(norms2, 0.25, atol=1e-15)

    def test_total_norm_is_dimension(self):
        F = harmonic_frame(5, 3)
        assert float(np.sum(np.abs(F.vectors) ** 2)) == pytest.approx(5.0, abs=1e-9)

    def test_parseval_sum_direct(self):
        F = harmonic_frame(4, 5)
        T = np.zeros((4, 4), dtype=np.complex128)
        for v in F.vectors:
            T += np.outer(v, v.conj())
        assert np.linalg.norm(T - np.eye(4)) < 1e-12

    def test_rejects_n_below_two(self):
        with pytest.raises(FrameError):
            harmonic_frame(3, 1)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(FrameError):
            harmonic_frame(0, 4)
        with pytest.raises(FrameError, match=r"^dimension k must be positive, got 0$"):
            FrameFamily(k=0, N=2, vectors=np.zeros((0, 0)))

    def test_rejects_oversized_frame(self):
        with pytest.raises(FrameError):
            harmonic_frame(1000, 1000)

    def test_modulated_is_valid_and_seeded(self):
        Fa = modulated_harmonic_frame(3, 5, seed=42)
        Fb = modulated_harmonic_frame(3, 5, seed=42)
        Fc = modulated_harmonic_frame(3, 5, seed=43)
        assert validate_frame(Fa).passed
        assert np.array_equal(Fa.vectors, Fb.vectors)
        assert not np.array_equal(Fa.vectors, Fc.vectors)

    # one table of the m roots gives each entry the double pair of an exponential evaluated for it alone
    @pytest.mark.parametrize("k, N", [(1, 2), (6, 16), (8, 25), (8, 400), (32, 50), (64, 25), (1, 100_000),
                                      (4, 25_000)])
    def test_constructors_match_one_exponential_per_entry(self, k, N):
        bits = harmonic_frame(k, N).vectors.view(np.uint64)
        assert np.array_equal(bits, dft_frame_vectors(k, N).view(np.uint64))
        for seed in (0, 1, 5, 701):
            bits = modulated_harmonic_frame(k, N, seed=seed).vectors.view(np.uint64)
            assert np.array_equal(bits, dft_frame_vectors(k, N, seed).view(np.uint64)), seed

    def test_modulated_frame_takes_two_exponentials_per_vector(self, monkeypatch):
        # m for the table of roots, m for the phases; not one per entry
        sizes = []
        exp = np.exp
        monkeypatch.setattr(np, "exp", lambda x, *args, **kwargs: sizes.append(np.size(x)) or exp(x, *args, **kwargs))
        F = modulated_harmonic_frame(64, 25, seed=1)
        assert 0 < sum(sizes) <= 2 * F.m

    def test_family_rejects_nan(self):
        with pytest.raises(FrameError):
            FrameFamily(k=2, N=2, vectors=np.full((4, 2), np.nan))

    def test_family_rejects_bad_shape(self):
        with pytest.raises(FrameError):
            FrameFamily(k=2, N=2, vectors=np.zeros((4, 3)))

    def test_vectors_are_read_only(self):
        F = harmonic_frame(2, 2)
        with pytest.raises(ValueError):
            F.vectors[0, 0] = 0.0

    def test_the_callers_array_is_copied(self):
        # a view of the caller's array, taken before construction, must not reach the validated frame
        vectors = harmonic_frame(2, 3).vectors.copy()
        view = vectors[:]
        F = FrameFamily(k=2, N=3, vectors=vectors)
        assert validate_frame(F).passed
        assert F.vectors is not vectors and vectors.flags.writeable and not F.vectors.flags.writeable
        view[0, 0] = 5.0
        vectors[1, 1] = 7.0
        assert validate_frame(F).passed
        assert np.array_equal(F.vectors, harmonic_frame(2, 3).vectors)


class TestValidation:
    def test_doubled_vector_fails_parseval(self):
        F = harmonic_frame(2, 3)
        vs = F.vectors.copy()
        vs[0] *= 2.0
        bad = FrameFamily(k=2, N=3, vectors=vs)
        report = validate_frame(bad)
        assert not report.passed
        assert report.parseval_deviation > 1e-3

    def test_wrong_count_fails(self):
        F = harmonic_frame(2, 3)
        short = FrameFamily(k=2, N=3, vectors=F.vectors[:-1])
        report = validate_frame(short)
        assert not report.count_ok
        assert not report.passed

    def test_half_frame_deviation_is_the_k_by_k_one(self):
        # below m = k the deviation is read from the m x m Gram, plus k - m for the missing rank
        F = modulated_harmonic_frame(16, 2, seed=5)
        half = FrameFamily(k=16, N=2, vectors=F.vectors[::4])
        want = np.linalg.norm(half.vectors.T @ half.vectors.conj() - np.eye(16))
        assert half.m == 8
        assert validate_frame(half).parseval_deviation == pytest.approx(want, rel=1e-12)

    def test_empty_family_fails_count(self):
        empty = FrameFamily(k=2, N=2, vectors=np.zeros((0, 2)))
        assert not validate_frame(empty).count_ok

    def test_summary_mentions_status(self):
        good = validate_frame(harmonic_frame(2, 2))
        assert good.summary().startswith("PASS")

    def test_rescale_fixes_small_drift(self):
        F = harmonic_frame(2, 4)
        drifted = FrameFamily(k=2, N=4, vectors=F.vectors * (1.0 + 3e-8))
        with pytest.warns(UserWarning):
            fixed = rescale_norms(drifted)
        norms2 = np.sum(np.abs(fixed.vectors) ** 2, axis=1)
        assert np.allclose(norms2, 0.25, atol=1e-15)

    def test_rescale_silent_when_exact(self):
        import warnings

        F = harmonic_frame(2, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rescale_norms(F)

    def test_rescale_refuses_large_drift(self):
        F = harmonic_frame(2, 4)
        wrong = FrameFamily(k=2, N=4, vectors=F.vectors * 1.1)
        with pytest.raises(FrameError):
            rescale_norms(wrong)

    def test_rescale_refuses_a_huge_n_without_overflow(self):
        # 1 / N is 0.0 at N = 10**400, so norms of 1/3 sit far outside the limit; 1.0 / N would overflow
        F = FrameFamily(k=2, N=10**400, vectors=harmonic_frame(2, 3).vectors)
        with pytest.raises(FrameError, match=r"^norm deviation 3\.333e-01 exceeds the rescale limit 1\.0e-06$"):
            rescale_norms(F)

    def test_vectors_too_large_to_square_are_refused_without_warnings(self):
        # finite entries whose squares overflow; tier-1 turns any warning into an error
        F = harmonic_frame(4, 9)
        huge = FrameFamily(k=F.k, N=F.N, vectors=F.vectors * 1e200)
        report = validate_frame(huge)
        assert not report.passed
        assert report.norm_deviation == np.inf and np.isnan(report.parseval_deviation)
        assert "norm deviation inf, Parseval deviation nan" in report.summary()
        with pytest.raises(FrameError, match="norm deviation inf"):
            rescale_norms(huge)
        with pytest.raises(FrameError, match="norm deviation inf, Parseval deviation nan"):
            select_subset(huge, 10)


class TestProjectionDuality:
    def test_gram_is_projection_with_correct_diagonal(self):
        F = harmonic_frame(2, 3)
        P = frame_to_projection(F)
        assert np.linalg.norm(P @ P - P) < 1e-9
        assert np.allclose(np.diag(P).real, 1.0 / 3.0, atol=1e-12)
        assert float(np.real(np.trace(P))) == pytest.approx(2.0, abs=1e-10)

    def test_gram_entries_are_inner_products(self):
        F = harmonic_frame(3, 2)
        P = frame_to_projection(F)
        v = F.vectors
        for i in range(F.m):
            for j in range(F.m):
                assert P[i, j] == pytest.approx(np.vdot(v[i], v[j]), abs=1e-14)

    def test_k1_gram(self):
        P = frame_to_projection(harmonic_frame(1, 2))
        assert P.shape == (2, 2)
        assert np.allclose(np.diag(P).real, 0.5)

    def test_gram_requires_valid_frame(self):
        F = harmonic_frame(2, 3)
        bad = FrameFamily(k=2, N=3, vectors=F.vectors * 1.2)
        with pytest.raises(FrameError):
            frame_to_projection(bad)

    def test_projection_round_trip_preserves_gram(self):
        F = harmonic_frame(3, 4)
        P = frame_to_projection(F)
        G = frame_to_projection(projection_to_frame(P, 4))
        assert np.max(np.abs(G - P)) < 1e-9

    def test_projection_to_frame_rank_one_case(self):
        m = 5
        P = np.full((m, m), 1.0 / m, dtype=np.complex128)
        F = projection_to_frame(P, m)
        assert F.k == 1
        assert np.allclose(np.abs(F.vectors), 1.0 / np.sqrt(m), atol=1e-12)

    def test_projection_to_frame_rejects_n_one(self):
        with pytest.raises(FrameError):
            projection_to_frame(np.eye(3), 1)

    def test_projection_to_frame_rejects_non_projection(self):
        # Hermitian with diagonal 1/2, but its eigenvalues are 1/2, not 0 or 1
        with pytest.raises(FrameError, match="not a projection"):
            projection_to_frame(0.5 * np.eye(4), 2)

    def test_projection_to_frame_refuses_non_hermitian(self):
        # eigh makes the one Hermitian check, so these are ValueError, not FrameError
        P = frame_to_projection(harmonic_frame(2, 3))
        skew = P.copy()
        skew[0, 1] += 1e-6
        nan = P.copy()
        nan[2, 2] = np.nan
        for bad, message in ((skew, "not Hermitian"), (nan, "NaN or Inf")):
            with pytest.raises(ValueError, match=message) as info:
                projection_to_frame(bad, 3)
            assert info.type is ValueError

    def test_projection_to_frame_rejects_wrong_diagonal(self):
        F = harmonic_frame(2, 3)
        P = frame_to_projection(F)
        with pytest.raises(FrameError):
            projection_to_frame(P, 2)  # claims diagonal 1/2, actual 1/3

    def test_projection_to_frame_checks_the_diagonal_before_the_rank(self):
        # the rank-1 projection on 3 points has diagonal 1/3, not 1/2; N = 2 does not divide m = 3 either,
        # but the diagonal is read first (test_projection_to_frame_refuses_a_trace_off_m_over_n reaches m % N)
        P = np.full((3, 3), 1.0 / 3.0, dtype=np.complex128)
        with pytest.raises(FrameError, match=r"^diagonal entries deviate from 1/2 by 1\.667e-01$"):
            projection_to_frame(P, 2)

    def test_projection_to_frame_refuses_a_trace_off_m_over_n(self, monkeypatch):
        # the zero projection's diagonal 0 is within tolerance of 1/N at huge N, and N does not divide 3
        with pytest.raises(FrameError, match=r"^rank m/N = 3/10000000000 is not integral$"):
            projection_to_frame(np.zeros((3, 3)), 10**10)
        # at a tolerance of 1/2 the zero projection passes as diagonal 1/2, with rank 0, not m/N = 1
        monkeypatch.setattr(frames, "_FRAME_TOL", 0.5)
        with pytest.raises(FrameError, match=r"^rank 0 does not match trace m/N = 1$"):
            projection_to_frame(np.zeros((2, 2)), 2)


class TestCompressedGram:
    def test_full_selection_returns_everything(self):
        F = harmonic_frame(2, 2)
        P = frame_to_projection(F)
        Q = DiagonalSelector(m=4, indices=tuple(range(1, 5)))
        assert np.array_equal(compressed_gram(P, Q), P)
        top = float(np.max(np.linalg.eigvalsh(P)))
        assert top == pytest.approx(1.0, abs=1e-12)

    def test_single_index_gives_diagonal_entry(self):
        F = harmonic_frame(2, 3)
        P = frame_to_projection(F)
        sub = compressed_gram(P, DiagonalSelector(m=6, indices=(4,)))
        assert sub.shape == (1, 1)
        assert sub[0, 0].real == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_norm_matches_rank_one_sum_exhaustively(self):
        # every nonempty subset on a small frame: ||QPQ|| = lambda_max(T_S)
        F = harmonic_frame(3, 4)
        P = frame_to_projection(F)
        for size in range(1, F.m + 1):
            for subset in itertools.combinations(range(1, F.m + 1), size):
                sub = compressed_gram(P, DiagonalSelector(m=F.m, indices=subset))
                norm_q = float(np.max(np.linalg.eigvalsh(sub)))
                norm_t = float(np.max(np.linalg.eigvalsh(F.rank_one_sum(subset))))
                assert norm_q == pytest.approx(norm_t, abs=1e-10)

    def test_selector_validates_indices(self):
        with pytest.raises(FrameError):
            DiagonalSelector(m=4, indices=(0, 1))
        with pytest.raises(FrameError):
            DiagonalSelector(m=4, indices=(1, 5))
        with pytest.raises(FrameError):
            DiagonalSelector(m=4, indices=(2, 2))

    def test_size_mismatch_rejected(self):
        with pytest.raises(FrameError):
            compressed_gram(np.eye(3), DiagonalSelector(m=4, indices=(1,)))
        with pytest.raises(FrameError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            compressed_gram(np.zeros((2, 3)), DiagonalSelector(m=2, indices=(1,)))


class TestJsonFormats:
    def test_frame_round_trip_bit_identical(self, tmp_path):
        F = modulated_harmonic_frame(3, 4, seed=5)
        path = tmp_path / "frame.json"
        save_frame(F, path)
        G = load_frame(path)
        assert G.k == F.k and G.N == F.N and G.m == F.m
        assert np.array_equal(G.vectors, F.vectors)  # bit-identical doubles

    def test_frame_rewrite_is_byte_stable(self, tmp_path):
        F = modulated_harmonic_frame(2, 5, seed=9)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_frame(F, p1)
        save_frame(load_frame(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_frame_dict_schema(self):
        F = harmonic_frame(2, 2)
        data = frame_to_dict(F)
        assert list(data.keys()) == ["k", "N", "m", "vectors"]
        assert len(data["vectors"]) == 4
        assert len(data["vectors"][0]) == 2
        assert len(data["vectors"][0][0]) == 2

    def test_frame_json_refuses_nan(self, tmp_path):
        data = frame_to_dict(harmonic_frame(2, 2))
        data["vectors"][0][0][0] = float("nan")
        with pytest.raises(FrameError):
            frame_from_dict(data)
        # json reads these texts as inf or nan; the decoder leaves them to FrameFamily
        data["vectors"][0][0][0] = "entry"
        path = tmp_path / "frame.json"
        for text in ("1e400", "-1e400", "Infinity", "-Infinity", "NaN"):
            path.write_text(json.dumps(data).replace('"entry"', text))
            with pytest.raises(FrameError, match="NaN or Inf"):
                load_frame(path)

    def test_frame_json_refuses_wrong_counts(self):
        data = frame_to_dict(harmonic_frame(2, 2))
        data["vectors"] = data["vectors"][:-1]
        with pytest.raises(FrameError):
            frame_from_dict(data)

    def test_frame_json_entries_have_exact_shape(self):
        # signed zeros survive and an empty frame loads; a short row, a long
        # pair, a null and an integer beyond double range are refused
        vectors = np.array([[complex(-0.0, -0.0), 0.5], [complex(0.5, -0.0), -0.5j]])
        F = FrameFamily(k=2, N=2, vectors=vectors)
        G = frame_from_dict(json.loads(json.dumps(frame_to_dict(F))))
        assert G.vectors.tobytes() == F.vectors.tobytes()
        assert frame_from_dict({"k": 2, "N": 2, "m": 0, "vectors": []}).vectors.shape == (0, 2)
        for mutate in (
            lambda v: v[0].pop(),
            lambda v: v[0][0].append(0.0),
            lambda v: v[1][1].__setitem__(0, None),
            lambda v: v[1][1].__setitem__(0, 10**400),
        ):
            data = frame_to_dict(F)
            mutate(data["vectors"])
            with pytest.raises(FrameError):
                frame_from_dict(data)

    @pytest.mark.parametrize("key", ["k", "N", "m"])
    @pytest.mark.parametrize("value", [2.9, 2.0, "2", True], ids=["fraction", "float", "string", "bool"])
    def test_frame_json_header_must_be_integers(self, key, value):
        # before, int() coerced these: "k": 2.9 loaded as k = 2 and "N": "2" as N = 2
        data = frame_to_dict(harmonic_frame(2, 2))
        data[key] = value
        with pytest.raises(FrameError, match="expected an integer"):
            frame_from_dict(data)

    @pytest.mark.parametrize(
        "entry", [["0.5", 0.0], [0.5, False], [True, 0.0], ["abc", 0.0]], ids=["numeric-string", "false", "true", "text"]
    )
    def test_frame_entries_must_be_numbers(self, entry):
        # before, ["0.5", false] loaded as 0.5+0j; integers stay valid numbers
        data = frame_to_dict(harmonic_frame(2, 2))
        data["vectors"][1][1] = entry
        with pytest.raises(FrameError):
            frame_from_dict(data)
        assert frame_from_dict({"k": 1, "N": 2, "m": 2, "vectors": [[[1, 0]], [[0, -1]]]}).vectors[1, 0] == -1j

    def test_frame_json_refuses_missing_header(self):
        with pytest.raises(FrameError):
            frame_from_dict({"k": 2, "N": 2})

    @pytest.mark.parametrize(
        "F",
        [
            FrameFamily(k=2, N=2, vectors=[[-0.0 + 5e-324j, 1e308 - 2.5e-310j], [0.1 - 0.0j, -1e-300 + 1j]]),
            FrameFamily(k=3, N=2, vectors=np.zeros((0, 3))),
        ],
        ids=["signed-zero-subnormal-huge", "no-vectors"],
    )
    def test_frame_writer_bytes_are_json_dumps(self, F, tmp_path):
        path = tmp_path / "frame.json"
        save_frame(F, path)
        want = json.dumps(frame_to_dict(F), allow_nan=False, indent=1) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    def test_every_writer_uses_one_file_form(self, tmp_path):
        F = harmonic_frame(2, 3)
        cert = select_subset(F, 3)
        report = dichotomy_check(build_katz(2))
        cases = [
            (save_frame, F, frame_to_dict(F)),
            (save_certificate, cert, certificate_to_dict(cert)),
            (save_dichotomy_report, report, report.to_dict()),
        ]
        for save, obj, data in cases:
            path = tmp_path / f"{save.__name__}.json"
            save(obj, path)
            assert path.read_bytes() == (json.dumps(data, allow_nan=False, indent=1) + "\n").encode("utf-8")

    def test_saved_file_is_plain_json(self, tmp_path):
        path = tmp_path / "f.json"
        save_frame(harmonic_frame(1, 2), path)
        data = json.loads(path.read_text())
        assert data["m"] == 2
