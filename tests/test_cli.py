"""Command-line interface: artifacts, determinism, exit codes."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from framesel import (
    FrameFamily,
    KatzSystem,
    SelectionError,
    complement_lower_bound,
    harmonic_frame,
    load_certificate,
    load_frame,
    modulated_harmonic_frame,
    save_certificate,
    save_frame,
    select_subset,
    selector,
    verify_certificate,
)
from framesel import cli
from framesel.cli import CSV_COLUMNS, main

DATA = Path(__file__).resolve().parent / "data"
DEEP = "[" * 200_000 + "]" * 200_000  # nested deeper than json's decoder can recurse


def run(*argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_writes_valid_frame(self, tmp_path, capsys):
        out = tmp_path / "frame.json"
        assert run("gen", "--k", 8, "--N", 25, "--out", out) == 0
        frame = load_frame(out)
        assert frame.m == 200
        assert "PASS" in capsys.readouterr().out

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "--k", 2, "--N", 2, "--kind", "modulated", "--seed", 7, "--out", a)
        run("gen", "--k", 2, "--N", 2, "--kind", "modulated", "--seed", 7, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_modulated_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "--k", 2, "--N", 3, "--kind", "modulated", "--seed", 1, "--out", a)
        run("gen", "--k", 2, "--N", 3, "--kind", "modulated", "--seed", 2, "--out", b)
        assert a.read_bytes() != b.read_bytes()

    def test_rejects_n_one(self, tmp_path):
        assert run("gen", "--k", 3, "--N", 1, "--out", tmp_path / "x.json") == 2

    def test_seed_needs_modulated(self, tmp_path, capsys):
        # a harmonic frame has no randomness, so a seed would be ignored
        out = tmp_path / "f.json"
        assert run("gen", "--k", 2, "--N", 2, "--seed", 9, "--out", out) == 2
        assert "--kind modulated" in capsys.readouterr().err
        assert not out.exists()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("gen", "--k", 2, "--N", 3, "--kind", "modulated", "--out", a) == 0
        assert run("gen", "--k", 2, "--N", 3, "--kind", "modulated", "--seed", 0, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_is_io_error(self):
        assert run("gen", "--k", 2, "--N", 2, "--out", "/nonexistent/dir/f.json") == 3

    def test_tol_belongs_to_gen_only(self, frame_file, tmp_path, capsys):
        # --tol sets the frame validation tolerance, which only gen reports
        out = tmp_path / "f.json"
        assert run("gen", "--k", 4, "--N", 9, "--out", out) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("PASS")
        assert run("gen", "--k", 4, "--N", 9, "--tol", "1e-30", "--out", out) == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("FAIL") and last.endswith("tol 1.0e-30")
        cert = tmp_path / "c.json"
        assert run("select", "--frame", frame_file, "--n", 9, "--out", cert) == 0
        assert run("select", "--frame", frame_file, "--n", 9, "--tol", 1e-3, "--out", cert) == 2
        assert run("sweep", "--k", 2, "--N", 4, "--n-min", 1, "--n-max", 2, "--tol", 1e-3) == 2
        assert run("verify", "--frame", frame_file, "--cert", cert, "--tol", 1e-3) == 2
        assert run("katz", "--N", 2, "--tol", 1e-3, "--out", tmp_path / "k.json") == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.001"])
    def test_tol_must_be_finite_and_nonnegative(self, tol, tmp_path, capsys):
        # a bad flag is a usage error, not a frame that fails validation
        out = tmp_path / "f.json"
        assert run("gen", "--k", 2, "--N", 2, "--tol", tol, "--out", out) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture()
def frame_file(tmp_path):
    out = tmp_path / "frame.json"
    run("gen", "--k", 4, "--N", 9, "--out", out)
    return out


class TestSelect:
    def test_certificate_round_trip(self, frame_file, tmp_path, capsys):
        cert_file = tmp_path / "cert.json"
        assert run("select", "--frame", frame_file, "--n", 18, "--out", cert_file) == 0
        out = capsys.readouterr().out
        assert "lambda_max" in out and "margin" in out
        cert = load_certificate(cert_file)
        assert verify_certificate(load_frame(frame_file), cert).passed

    def test_half_ratio_bound(self, tmp_path, capsys):
        frame = tmp_path / "f.json"
        cert = tmp_path / "c.json"
        run("gen", "--k", 8, "--N", 25, "--out", frame)
        capsys.readouterr()
        assert run("select", "--frame", frame, "--n", 100, "--out", cert) == 0
        printed = capsys.readouterr().out
        lam = float(next(l for l in printed.splitlines() if l.startswith("lambda_max")).split("=")[1])
        assert lam < 0.825

    def test_rejects_n_zero_and_n_m(self, frame_file, tmp_path):
        assert run("select", "--frame", frame_file, "--n", 0, "--out", tmp_path / "c.json") == 2
        assert run("select", "--frame", frame_file, "--n", 36, "--out", tmp_path / "c.json") == 2

    def test_frame_too_large_to_square_is_refused_without_warnings(self, tmp_path, capsys):
        F = harmonic_frame(4, 9)
        frame = tmp_path / "frame.json"
        save_frame(FrameFamily(k=F.k, N=F.N, vectors=F.vectors * 1e200), frame)
        assert run("select", "--frame", frame, "--n", 10, "--out", tmp_path / "c.json") == 2
        err = capsys.readouterr().err
        assert "norm deviation inf, Parseval deviation nan" in err
        assert "Warning" not in err

    def test_missing_frame_is_io_error(self, tmp_path):
        assert run("select", "--frame", tmp_path / "nope.json", "--n", 2, "--out", tmp_path / "c.json") == 3

    def test_malformed_frame_is_usage_error(self, frame_file, tmp_path, capsys):
        # not JSON; an entry that is null, an integer too big for a double, a
        # boolean or a string; a header count that is not an integer
        data = json.loads(frame_file.read_text())
        texts = ["{not json"]
        for entry in (None, 10**400, False, "0.5"):
            bad = copy.deepcopy(data)
            bad["vectors"][0][0][1] = entry
            texts.append(json.dumps(bad))
        texts.append(json.dumps(dict(data, k=data["k"] + 0.9)))
        bad = tmp_path / "bad.json"
        for text in texts:
            bad.write_text(text)
            capsys.readouterr()
            assert run("select", "--frame", bad, "--n", 2, "--out", tmp_path / "c.json") == 2
            assert capsys.readouterr().err.startswith("error: malformed JSON input:" if text == texts[0] else "error:")

    def test_invalid_frame_is_usage_error(self, frame_file, tmp_path):
        data = json.loads(frame_file.read_text())
        for row in data["vectors"]:
            for pair in row:
                pair[0] *= 1.5
                pair[1] *= 1.5
        bad = tmp_path / "scaled.json"
        bad.write_text(json.dumps(data))
        assert run("select", "--frame", bad, "--n", 2, "--out", tmp_path / "c.json") == 2

    def test_selection_failure_prints_its_u_profile(self, frame_file, tmp_path, monkeypatch, capsys):
        def no_candidate(F, n):
            raise SelectionError("no feasible candidate at step 3", u_profile=np.array([3.0, 1.5, 2.25, 4.0]))

        monkeypatch.setattr(cli, "select_subset", no_candidate)
        out = tmp_path / "c.json"
        assert run("select", "--frame", frame_file, "--n", 9, "--out", out) == 1
        assert capsys.readouterr() == ("", (
            "failure: no feasible candidate at step 3\n"
            "diagnostic: 4 candidates, min U = 1.5, median U = 3\n"
        ))
        assert not out.exists()

    def test_threads_flag_is_a_usage_error(self, frame_file, tmp_path):
        assert run("select", "--frame", frame_file, "--n", 9, "--threads", 4, "--out", tmp_path / "c.json") == 2
        assert run("sweep", "--k", 2, "--N", 4, "--n-min", 1, "--n-max", 2, "--threads", 4) == 2


class TestSweep:
    def test_n_range_rows(self, tmp_path, capsys):
        assert run("sweep", "--k", 2, "--N", 4, "--n-min", 1, "--n-max", 5) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "k", "N", "m", "n", "lambda_max", "a_n",
            "excess", "excess_sqrt_N", "complement_lambda_min",
        ]
        assert len(lines) == 6
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["lambda_max"]) < float(row["a_n"])
            assert int(row["m"]) == 8

    def test_17_digit_round_trip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run("sweep", "--k", 2, "--N", 4, "--n-min", 3, "--n-max", 3, "--out", out)
        header, row = out.read_text().strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        text = values["lambda_max"]
        assert float(text) == float(repr(float(text)))  # lossless double text form
        assert np.float64(text).hex() == np.float64(float(text)).hex()

    def test_empty_range_header_only(self, capsys):
        assert run("sweep", "--k", 2, "--N", 4, "--n-min", 1, "--n-max", 0) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1

    def test_n_list_mode(self, capsys):
        assert run("sweep", "--k", 2, "--N-list", "4,9", "--ratio", "0.5") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            parts = line.split(",")
            n, m = int(parts[3]), int(parts[2])
            assert n * 2 == m

    def test_n_range_bytes_match_independent_runs(self, tmp_path, fresh_runs_8_25):
        frame, fresh = fresh_runs_8_25
        lines = ["k,N,m,n,lambda_max,a_n,excess,excess_sqrt_N,complement_lambda_min"]
        for n, cert in fresh.items():
            comp_min, _ = complement_lower_bound(frame, cert)
            values = (cert.lambda_max, cert.bound, cert.excess, cert.excess * 25 ** 0.5, comp_min)
            lines.append(f"8,25,200,{n}," + ",".join("%.17g" % x for x in values))
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--k", 8, "--N", 25, "--n-min", 1, "--n-max", 199, "--out", out) == 0
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_n_max_beyond_m_writes_valid_rows_then_fails(self, tmp_path, capsys):
        assert run("sweep", "--k", 2, "--N", 4, "--n-min", 1, "--n-max", 8) == 2
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == [str(n) for n in range(1, 8)]
        assert captured.err == "error: n must satisfy 1 <= n < m = 8, got 8\n"
        # to a file: the same header and rows, and the file is closed when the run fails
        out = tmp_path / "s.csv"
        assert run("sweep", "--k", 2, "--N", 4, "--n-min", 1, "--n-max", 8, "--out", out) == 2
        assert capsys.readouterr() == ("", captured.err)
        assert out.read_bytes() == captured.out.encode()

    def test_n_min_zero_writes_header_then_fails(self, capsys):
        assert run("sweep", "--k", 2, "--N", 4, "--n-min", 0, "--n-max", 3) == 2
        assert capsys.readouterr().out.strip().splitlines() == [",".join(CSV_COLUMNS)]

    def test_requires_consistent_flags(self):
        assert run("sweep", "--k", 2) == 2
        assert run("sweep", "--k", 2, "--N", 4) == 2
        assert run("sweep", "--k", 2, "--N-list", "4", "--n-min", 1, "--n-max", 2) == 2
        for N_list in (",", ",,", ""):
            assert run("sweep", "--k", 4, "--N-list", N_list) == 2

    def test_n_list_refuses_n(self, capsys):
        # the list names every frame, so --N beside it would be ignored
        assert run("sweep", "--k", 2, "--N-list", "4", "--N", 9) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "--N-list" in captured.err
        assert captured.out == ""

    def test_ratio_needs_n_list(self, capsys):
        # an n-range sets n directly, so a ratio would be ignored
        assert run("sweep", "--k", 2, "--N", 4, "--n-min", 1, "--n-max", 2, "--ratio", 0.9) == 2
        captured = capsys.readouterr()
        assert "--N-list" in captured.err
        assert captured.out == ""
        assert run("sweep", "--k", 2, "--N-list", "4,9") == 0
        default = capsys.readouterr().out
        assert run("sweep", "--k", 2, "--N-list", "4,9", "--ratio", 0.5) == 0
        assert capsys.readouterr().out == default

    def test_barrier_failure_exits_one(self, monkeypatch, capsys):
        # BarrierError is a ValueError; a selection failure still exits 1, not 2
        monkeypatch.setattr(selector, "_GAP_FLOOR", 1e9)
        assert main(["sweep", "--k", "2", "--N", "4", "--n-min", "1", "--n-max", "2"]) == 1
        assert capsys.readouterr().err.startswith("failure:")

    @pytest.mark.parametrize("ratio", ["inf", "nan", "0", "1", "-0.5", "1.5"])
    def test_n_list_ratio_must_lie_inside_zero_one(self, ratio, capsys):
        assert run("sweep", "--k", 4, "--N-list", 25, "--ratio", ratio) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""


class TestRefusals:
    # each flag combination that would be ignored or cannot run: exit 2, one error line, nothing written
    @pytest.mark.parametrize("argv, text", [
        (("gen", "--k", 2, "--N", 2, "--seed", 9), "--seed applies only with --kind modulated"),
        (("sweep", "--k", 2), "sweep needs --N with an n-range, or --N-list with --ratio"),
        (("sweep", "--k", 2, "--N-list", "4", "--N", 9),
         "--N-list uses --ratio; --N and an n-range apply only without it"),
        (("sweep", "--k", 2, "--N", 4, "--n-min", 1), "sweep over one frame needs both --n-min and --n-max"),
        (("sweep", "--k", 2, "--N", 4, "--n-min", 1, "--n-max", 2, "--ratio", 0.9),
         "--ratio applies only with --N-list; an n-range sets n directly"),
        (("sweep", "--k", 4, "--N-list", 25, "--ratio", 1.5), "--ratio must lie strictly between 0 and 1, got 1.5"),
        (("katz", "--N", 3, "--trials", 5), "--trials and --seed apply only with --sampled"),
        (("katz", "--N", 11),
         "C(22, 11) = 705432 points exceeds the build cap 200000; use closed_form_range for large N"),
        (("katz", "--N", 11, "--sampled"),
         "C(22, 11) = 705432 points exceeds the build cap 200000; use closed_form_range for large N"),
        (("gen", "--k", 2, "--N", 2, "--kind", "modulated", "--seed", -1),
         "--seed must be a non-negative integer, got -1"),
        (("katz", "--N", 3, "--sampled", "--seed", -1), "--seed must be a non-negative integer, got -1"),
    ], ids=["gen-seed", "sweep-no-frame", "sweep-list-and-N", "sweep-half-range", "sweep-range-ratio",
            "sweep-ratio-range", "katz-trials", "katz-out-of-reach", "katz-sampled-out-of-reach", "gen-negative-seed",
            "katz-negative-seed"])
    def test_refusal_exits_2_with_one_error_line(self, argv, text, tmp_path, capsys):
        assert run(*argv, "--out", tmp_path / "out") == 2
        assert capsys.readouterr() == ("", f"error: {text}\n")
        assert list(tmp_path.iterdir()) == []

    # a frame or certificate file that cannot be used: exit 2, one error line, nothing written
    @pytest.mark.parametrize("command, name, edit, text", [
        ("select", "frame", DEEP, "malformed JSON input: maximum recursion depth exceeded"),
        ("verify", "frame", DEEP, "malformed JSON input: maximum recursion depth exceeded"),
        ("verify", "cert", DEEP, "malformed JSON input: maximum recursion depth exceeded"),
        ("select", "frame", {"N": 1}, "norm parameter N must be at least 2, got 1\n"),
        ("select", "frame", {"k": 0}, "frame vectors: expected 36 rows of 0 [re, im] pairs, got shape (36, 4, 2)\n"),
        ("select", "frame", {"N": 10}, "invalid frame: FAIL: m=36 (expected 40), "),
        ("select", "frame", {"N": 10**400}, f"invalid frame: FAIL: m=36 (expected {4 * 10**400}), "),
    ], ids=["select-deep-frame", "verify-deep-frame", "verify-deep-cert", "N-one", "k-zero", "m-not-kN", "huge-N"])
    def test_unusable_file_exits_2_with_one_error_line(self, command, name, edit, text, frame_file, tmp_path, capsys):
        files = {"frame": frame_file, "cert": tmp_path / "cert.json"}
        assert run("select", "--frame", frame_file, "--n", 9, "--out", files["cert"]) == 0
        data = json.loads(files[name].read_text())
        files[name].write_text(edit if isinstance(edit, str) else json.dumps(dict(data, **edit)))
        capsys.readouterr()
        out = tmp_path / "out.json"
        if command == "select":
            assert run("select", "--frame", frame_file, "--n", 9, "--out", out) == 2
        else:
            assert run("verify", "--frame", frame_file, "--cert", files["cert"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {text}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert not out.exists()


class TestKatz:
    def test_exhaustive_run(self, tmp_path, capsys):
        out = tmp_path / "katz.json"
        assert run("katz", "--N", 3, "--out", out) == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert data["subsets_checked"] == 64

    def test_sampled_run(self, tmp_path):
        out = tmp_path / "katz.json"
        assert run("katz", "--N", 10, "--sampled", "--trials", 200, "--seed", 1, "--out", out) == 0
        data = json.loads(out.read_text())
        assert data["mode"] == "sampled"
        assert data["subsets_checked"] == 200

    def test_large_n_needs_sampled(self, tmp_path):
        # every N that build_katz builds runs exhaustively; past its cap neither mode can run
        assert run("katz", "--N", 10, "--out", tmp_path / "k.json") == 0
        assert run("katz", "--N", 11, "--out", tmp_path / "k11.json") == 2

    def test_rejects_nonpositive_n(self, tmp_path):
        assert run("katz", "--N", 0, "--out", tmp_path / "k.json") == 2

    def test_failed_dichotomy_exits_one(self, tmp_path, monkeypatch, capsys):
        # two disjoint points: S = {1, 3} meets each once, so g_S = 1/2 everywhere
        def doctored(N):
            masks = np.array([0b0011, 0b1100], dtype=np.uint64)
            masks.setflags(write=False)
            return KatzSystem(N=N, masks=masks)

        monkeypatch.setattr(cli, "build_katz", doctored)
        out = tmp_path / "k.json"
        assert run("katz", "--N", 2, "--out", out) == 1
        assert capsys.readouterr() == (
            f"wrote {out}\nN = 2, exhaustive: 16 subsets, 7 with min 0, 7 with max 1, 4 confined\ndichotomy FAILED\n",
            "",
        )
        data = json.loads(out.read_text())
        assert data["passed"] is False and data["violations"] == [[1, 3], [2, 3], [1, 4], [2, 4]]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_sampled_needs_a_positive_trial_count(self, trials, tmp_path, capsys):
        out = tmp_path / "k.json"
        assert run("katz", "--N", 3, "--sampled", "--trials", trials, "--out", out) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_trials_needs_sampled(self, tmp_path, capsys):
        # an exhaustive run checks every subset, so a trial count would be ignored
        out = tmp_path / "k.json"
        assert run("katz", "--N", 3, "--trials", 5, "--out", out) == 2
        assert "--sampled" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_needs_sampled(self, tmp_path, capsys):
        # an exhaustive run draws nothing, so a seed would be ignored
        out = tmp_path / "k.json"
        assert run("katz", "--N", 3, "--seed", 5, "--out", out) == 2
        assert "--sampled" in capsys.readouterr().err
        assert not out.exists()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("katz", "--N", 4, "--sampled", "--trials", 50, "--out", a) == 0
        assert run("katz", "--N", 4, "--sampled", "--trials", 50, "--seed", 0, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_fresh_certificate_passes(self, frame_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        run("select", "--frame", frame_file, "--n", 12, "--out", cert)
        assert run("verify", "--frame", frame_file, "--cert", cert) == 0
        assert "certificate verified" in capsys.readouterr().out

    def test_tampered_lambda_fails(self, frame_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        run("select", "--frame", frame_file, "--n", 12, "--out", cert)
        data = json.loads(cert.read_text())
        data["steps"][-1]["lambda_max"] -= 0.05
        data["final"]["eigenvalues"][-1] -= 0.05
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        assert run("verify", "--frame", frame_file, "--cert", tampered) == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_barrier_crossing_is_rejected_with_a_report(self, tmp_path, capsys):
        frame, cert = tmp_path / "frame.json", tmp_path / "cert.json"
        run("gen", "--k", 2, "--N", 25, "--out", frame)
        run("select", "--frame", frame, "--n", 20, "--out", cert)
        data = json.loads(cert.read_text())
        for j, step in enumerate(data["steps"], 1):
            step["index"] = j
        data["final"]["indices"] = list(range(1, 21))
        cert.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("verify", "--frame", frame, "--cert", cert) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith("certificate REJECTED\n")
        assert "FAIL steps: step 19: norm bound breached" in captured.out
        assert captured.err == ""

    def test_overflowing_frame_is_rejected_with_a_report(self, tmp_path, capsys):
        F = harmonic_frame(4, 9)
        frame, cert = tmp_path / "frame.json", tmp_path / "cert.json"
        save_frame(FrameFamily(k=F.k, N=F.N, vectors=F.vectors * 1e200), frame)
        save_certificate(select_subset(F, 10), cert)
        assert run("verify", "--frame", frame, "--cert", cert) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith("certificate REJECTED\n")
        assert "FAIL steps: step 1: T_1 is not finite" in captured.out
        assert "FAIL final-norm: replay stopped at step 1 of 10" in captured.out
        assert "smallest per-step margin      = -inf" in captured.out
        assert "error:" not in captured.out + captured.err

    def test_huge_finite_crossing_is_rejected_with_a_report(self, tmp_path, capsys):
        # T_5 is finite, but its roundoff defect (1e182) is far above eigh's absolute Hermitian check
        F = harmonic_frame(4, 9)
        cert = select_subset(F, 10)
        vectors = F.vectors.copy()
        vectors[cert.steps[4].index - 1] *= 1e100
        frame, path = tmp_path / "frame.json", tmp_path / "cert.json"
        save_frame(FrameFamily(k=F.k, N=F.N, vectors=vectors), frame)
        save_certificate(cert, path)
        assert run("verify", "--frame", frame, "--cert", path) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith("certificate REJECTED\n")
        assert "FAIL steps: step 5: norm bound breached" in captured.out
        assert "FAIL final-norm: replay stopped at step 5 of 10" in captured.out
        assert "error:" not in captured.out + captured.err

    def test_malformed_schedule_is_rejected_with_a_report(self, frame_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        run("select", "--frame", frame_file, "--n", 12, "--out", cert)
        data = json.loads(cert.read_text())
        for key, value in (("values", data["schedule"]["values"] + [1.0]), ("n", 36)):
            bad = copy.deepcopy(data)
            bad["schedule"][key] = value
            cert.write_text(json.dumps(bad))
            capsys.readouterr()
            assert run("verify", "--frame", frame_file, "--cert", cert) == 1
            captured = capsys.readouterr()
            assert captured.out.endswith("certificate REJECTED\n")
            assert "FAIL schedule:" in captured.out
            assert captured.err == ""

    @pytest.mark.parametrize("index", [0, 37, -3, 2**70])
    def test_index_outside_the_frame_is_rejected_with_a_report(self, index, tmp_path, capsys):
        F = harmonic_frame(4, 9)
        frame, cert = tmp_path / "frame.json", tmp_path / "cert.json"
        save_frame(F, frame)
        data = selector.certificate_to_dict(select_subset(F, 10))
        data["final"]["indices"][-1] = index
        cert.write_text(json.dumps(data))
        assert run("verify", "--frame", frame, "--cert", cert) == 1
        assert capsys.readouterr() == (
            f"FAIL compatibility: certificate index {index} outside 1..36\n"
            "final margin a_n - lambda_max = nan\n"
            "smallest per-step margin      = nan\n"
            "certificate REJECTED\n",
            "",
        )

    @pytest.mark.parametrize("size", [3, 5])
    def test_spectrum_of_the_wrong_length_is_rejected_with_a_report(self, size, tmp_path, capsys):
        F = harmonic_frame(4, 9)
        frame, cert = tmp_path / "frame.json", tmp_path / "cert.json"
        save_frame(F, frame)
        data = selector.certificate_to_dict(select_subset(F, 10))
        data["final"]["eigenvalues"] = data["final"]["eigenvalues"][:3] + [0.25] * (size - 3)
        cert.write_text(json.dumps(data))
        assert run("verify", "--frame", frame, "--cert", cert) == 1
        assert capsys.readouterr() == (
            "FAIL compatibility: frame/certificate mismatch: "
            f"frame dimension 4, certificate spectrum has {size} entries\n"
            "final margin a_n - lambda_max = nan\n"
            "smallest per-step margin      = nan\n"
            "certificate REJECTED\n",
            "",
        )

    def test_wrong_frame_fails_with_mismatch(self, frame_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        run("select", "--frame", frame_file, "--n", 12, "--out", cert)
        other = tmp_path / "other.json"
        run("gen", "--k", 2, "--N", 3, "--out", other)
        capsys.readouterr()
        assert run("verify", "--frame", other, "--cert", cert) == 1
        assert "mismatch" in capsys.readouterr().out

    def test_malformed_certificate_is_usage_error(self, frame_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schedule": {}}')
        assert run("verify", "--frame", frame_file, "--cert", bad) == 2
        # an integer too big for a double; a step number that is a boolean
        run("select", "--frame", frame_file, "--n", 12, "--out", bad)
        good = json.loads(bad.read_text())
        for key, value in (("U", 10**400), ("j", True)):
            data = copy.deepcopy(good)
            data["steps"][0][key] = value
            bad.write_text(json.dumps(data))
            capsys.readouterr()
            assert run("verify", "--frame", frame_file, "--cert", bad) == 2
            assert capsys.readouterr().err.startswith("error:")


class TestGoldenVerify:
    # the replay's stdout, byte for byte: margins, lambda_max and a_n print in full
    @pytest.mark.parametrize("name, F", [
        ("harmonic-8-25-n100", harmonic_frame(8, 25)),
        ("modulated-6-16-seed3-n48", modulated_harmonic_frame(6, 16, seed=3)),
    ])
    def test_stored_certificate_reports_the_same_bytes(self, name, F, tmp_path, capsys):
        frame = tmp_path / "frame.json"
        save_frame(F, frame)
        assert run("verify", "--frame", frame, "--cert", DATA / f"certificate-{name}.json") == 0
        assert capsys.readouterr().out == (DATA / f"verify-{name}.txt").read_text()

    def test_certificate_across_several_chunks_reports_the_same_bytes(self, tmp_path, capsys):
        # 600 steps at k = 8 span three replay chunks of 256
        F = modulated_harmonic_frame(8, 100, seed=5)
        frame, cert = tmp_path / "frame.json", tmp_path / "cert.json"
        save_frame(F, frame)
        save_certificate(select_subset(F, 600), cert)
        assert run("verify", "--frame", frame, "--cert", cert) == 0
        assert capsys.readouterr().out == (DATA / "verify-modulated-8-100-seed5-n600.txt").read_text()


class TestParser:
    def test_unknown_subcommand(self):
        assert run("explode") == 2

    def test_no_subcommand(self):
        assert main([]) == 2

    def test_help_exits_zero(self):
        assert run("--help") == 0

    @pytest.mark.parametrize("argv, text", [
        (("gen", "--k", 0, "--N", 3), "framesel gen: error: argument --k: must be a positive integer, got 0"),
        (("sweep", "--k", 2, "--N-list", "3,x"),
         "framesel sweep: error: argument --N-list: expected comma-separated integers, got '3,x'"),
    ], ids=["gen-k-zero", "sweep-N-list-not-integers"])
    def test_bad_argument_value_exits_2(self, argv, text, tmp_path, capsys):
        assert run(*argv, "--out", tmp_path / "out") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines()[-1] == text
        assert list(tmp_path.iterdir()) == []
