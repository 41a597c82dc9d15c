"""Malformed frame and certificate files, and out-of-range ``katz`` flags, keep to the CLI's exit-code contract,
by property tests.

Each file example starts from a valid (4, 9) frame and its n = 10 certificate. It edits the frame and,
independently, the certificate, or makes one edit to the field both files hold (N or m), so that the two still
agree with each other. Then it runs ``select`` on the frame and ``verify`` on both files, in process. An edit
replaces one node with a value that a loader must refuse or a check must catch, drops the node, cuts the text at a
byte, or puts a byte order mark in front of it. Each ``katz`` example draws --N, --trials and --seed from small,
edge and huge integers, with or without --sampled. Each ``sweep`` example draws --k, an n-range, an N-list and a
ratio the same way, each flag but --k left out or given, with or without --out.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import framesel
from framesel import harmonic_frame, select_subset
from framesel.cli import CSV_COLUMNS, main
from framesel.frames import frame_to_dict
from framesel.selector import certificate_to_dict

NEST = "@nest@"  # stands in for a nest 10^5 deep, spliced into the text after json writes the rest
DROP = object()  # removes the node in place of replacing it
VALUES = ({}, [], "", "x", True, None, -1, 2**70, 10**400, 1e308, NEST, DROP)
DEEP = "[" * 100_000 + "]" * 100_000
INTEGERS = [value for value in VALUES if type(value) is int]  # -1, 2**70 and 10**400

F = harmonic_frame(4, 9)
FRAME = frame_to_dict(F)
CERT = certificate_to_dict(select_subset(F, 10))


@st.composite
def node_paths(draw, doc):
    """A path from the root of ``doc``: at each level, stop or step into one child, so each key of a level counts
    alike and a header field is reached as often as the whole vector array."""
    path, node = (), doc
    while isinstance(node, (dict, list)) and node:
        key = draw(st.sampled_from([None, *(node if isinstance(node, dict) else range(len(node)))]))
        if key is None:
            break
        path, node = (*path, key), node[key]
    return path


@st.composite
def edits(draw, doc):
    """None (the file as written), ("cut", byte), ("bom",) or ("node", path, value); each file is left as
    written in 2 of 7 draws, so that the other file's edits reach the checks past loading."""
    kind = draw(st.sampled_from(["keep", "keep", "node", "node", "node", "cut", "bom"]))
    if kind == "cut":
        return kind, draw(st.integers(0, len(json.dumps(doc)) - 1))
    if kind == "node":
        return kind, draw(node_paths(doc)), draw(st.sampled_from(VALUES))
    return (kind,) if kind == "bom" else None


@st.composite
def edit_pairs(draw):
    """(frame edit, certificate edit): drawn apart, or in 1 of 3 draws one integer at the field both files hold.
    Any other value there is refused by the frame's loader, before the two files meet."""
    if draw(st.sampled_from(["apart", "apart", "shared"])) == "shared":
        key, value = draw(st.sampled_from(["N", "m"])), draw(st.sampled_from(INTEGERS))
        return ("node", (key,), value), ("node", ("schedule", key), value)
    return draw(edits(FRAME)), draw(edits(CERT))


def edited(doc, edit) -> str:
    text = json.dumps(doc)
    if edit is None:
        return text
    if edit[0] == "cut":
        return text[: edit[1]]
    if edit[0] == "bom":
        return "\ufeff" + text
    _, path, value = edit
    if not path:
        return "" if value is DROP else json.dumps(value).replace(f'"{NEST}"', DEEP)
    doc = json.loads(text)  # a copy to edit
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc).replace(f'"{NEST}"', DEEP)


def run(*argv):
    """main(argv) in process: (exit code, stdout, stderr). An exception that escapes main fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def test_malformed_files_keep_the_exit_code_contract(tmp_path):
    frame, cert, out = tmp_path / "frame.json", tmp_path / "cert.json", tmp_path / "out.json"
    seen = Counter()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(pair=edit_pairs())
    def check(pair):
        frame.write_text(edited(FRAME, pair[0]), encoding="utf-8")
        cert.write_text(edited(CERT, pair[1]), encoding="utf-8")
        out.unlink(missing_ok=True)
        for command, argv in (("select", ("--frame", frame, "--n", 10, "--out", out)),
                              ("verify", ("--frame", frame, "--cert", cert))):
            code, stdout, stderr = run(command, *argv)
            seen[command, code] += 1
            assert code in (0, 1, 2, 3)
            if code in (2, 3):  # one line on stderr and nothing on stdout; select writes nothing
                assert stdout == "" and stderr.count("\n") == 1 and stderr.endswith("\n")
                assert stderr.startswith("error: " if code == 2 else "i/o error: ")
                assert command == "verify" or not out.exists()
            elif command == "verify":
                assert stdout.endswith("certificate verified\n" if code == 0 else "certificate REJECTED\n")

    check()
    assert sum(seen.values()) == 2 * 300
    # every outcome that these edits can reach was reached: none of the checks above ran empty
    assert all(seen[outcome] for outcome in [("select", 0), ("select", 2), ("verify", 0), ("verify", 1),
                                             ("verify", 2)]), seen


NUMBERS = (-1, 0, 1, 11, 10**5, 2**62, 10**15, 2**70)  # --N 1 builds; 10**15 draws cannot be allocated
CAP_TEXT = "exceeds the build cap 200000; use closed_form_range for large N"


def build_refusals(*Ns):
    """build_katz's refusal text for each N, from a subprocess stopped after 20 s.

    C(2N, N) has about 0.6 N digits, so computing it at such an N would run for hours; the timeout fails the
    caller in place of hanging the suite.
    """
    src = str(Path(framesel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\nfrom framesel import build_katz\nfor N in map(int, sys.argv[1:]):\n"
            "    try: build_katz(N)\n    except ValueError as exc: print(exc)")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, Ns)], env=env, capture_output=True, text=True,
                          timeout=20)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_build_katz_refuses_a_huge_n_at_once():
    assert build_refusals(2**62) == [f"C({2**63}, {2**62}) points {CAP_TEXT}"]


@st.composite
def katz_argvs(draw):
    """(N, trials, seed, sampled): each of the three numbers left out or drawn from NUMBERS, N always given."""
    return (draw(st.sampled_from(NUMBERS)), draw(st.sampled_from([None, *NUMBERS])),
            draw(st.sampled_from([None, *NUMBERS])), draw(st.booleans()))


def test_katz_flags_keep_the_exit_code_contract(tmp_path):
    # every N past the cap is refused before the fuzz meets it, so a slow refusal fails here and cannot hang
    huge = [N for N in NUMBERS if N > 10]
    assert [line.endswith(CAP_TEXT) for line in build_refusals(*huge)] == [True] * len(huge)
    out = tmp_path / "katz.json"
    seen = Counter()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(case=katz_argvs())
    def check(case):
        N, trials, seed, sampled = case
        argv = ["--N", N, *(["--sampled"] if sampled else [])]
        argv += [*(["--trials", trials] if trials is not None else []), *(["--seed", seed] if seed is not None else [])]
        out.unlink(missing_ok=True)
        code, stdout, stderr = run("katz", *argv, "--out", out)
        seen[code] += 1
        assert code in (0, 1, 2, 3)
        if code in (2, 3):  # one line on stderr, nothing on stdout, no report
            assert stdout == "" and stderr.count("\n") == 1 and stderr.endswith("\n")
            assert stderr.startswith("error: " if code == 2 else "i/o error: ")
            assert not out.exists()
        flags_apply = sampled or (trials is None and seed is None)
        if N > 10 and flags_apply and (seed is None or seed >= 0):  # the flags pass, so build_katz refuses
            assert code == 2 and stderr.endswith(CAP_TEXT + "\n")
        if code == 0:
            assert json.loads(out.read_text())["passed"] is True

    check()
    print(seen)
    assert sum(seen.values()) == 300
    assert seen[0] and seen[2], seen  # both outcomes these flags can reach were reached


SWEEP_NS = (-1, 0, 1, 2, 3, 10**5)  # --N and each --N-list entry
SWEEP_RANGE = (-1, 0, 1, 2, 5, 2**62)  # --n-min and --n-max
SWEEP_RATIOS = (-0.5, 0, 0.3, 1)


@st.composite
def sweep_argvs(draw):
    """(k, N, n_min, n_max, N_list, ratio, to_file), None for a flag left out.

    Each example draws a mode, then gives each flag of that mode (--N, --n-min and --n-max, or --N-list and
    --ratio) in 3 of 4 draws and each flag of the other mode in 1 of 4, so that more examples pass the flag
    checks and reach a selection. At k = 1, N = 10**5 builds a frame at the size cap (m = 10**5), whose runs
    select up to 10**5 vectors at several ms a step: valid work, but too slow for a fuzz. So 10**5 is drawn at
    k = 2 only, where m is past the cap and the frame is refused before it is built.
    """
    k = draw(st.sampled_from([1, 2]))
    Ns = SWEEP_NS if k == 2 else SWEEP_NS[:-1]
    by_list = draw(st.booleans())

    def flag(values, own):
        return draw(values) if draw(st.sampled_from([own, own, own, not own])) else None

    return (k, flag(st.sampled_from(Ns), not by_list), flag(st.sampled_from(SWEEP_RANGE), not by_list),
            flag(st.sampled_from(SWEEP_RANGE), not by_list),
            flag(st.lists(st.sampled_from(Ns), min_size=1, max_size=3), by_list),
            flag(st.sampled_from(SWEEP_RATIOS), by_list), draw(st.sampled_from([False, True])))


def test_sweep_flags_keep_the_exit_code_contract(tmp_path):
    out = tmp_path / "sweep.csv"
    seen = Counter()

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(case=sweep_argvs())
    def check(case):
        k, N, n_min, n_max, N_list, ratio, to_file = case
        # flag=value, so that argparse takes a list such as -1,2 as the value and not as a flag
        flags = {"--k": k, "--N": N, "--n-min": n_min, "--n-max": n_max, "--ratio": ratio,
                 "--N-list": N_list and ",".join(map(str, N_list)), "--out": out if to_file else None}
        argv = [f"{flag}={value}" for flag, value in flags.items() if value is not None]
        out.unlink(missing_ok=True)
        code, stdout, stderr = run("sweep", *argv)
        seen[code, to_file] += 1
        assert code in (0, 1, 2, 3)
        if code != 0:  # any exit but 0 prints nothing on stdout and writes no CSV
            assert stdout == "" and not out.exists()
        if code in (2, 3):  # and one line on stderr
            assert stderr.count("\n") == 1 and stderr.endswith("\n")
            assert stderr.startswith("error: " if code == 2 else "i/o error: ")
        if code == 0:  # a header and one row per n of the range, or per entry of the N-list; never no rows
            csv = out.read_text(encoding="utf-8") if to_file else stdout
            assert stderr == "" and (stdout == "") == to_file
            header, *rows = csv.splitlines()
            assert header == ",".join(CSV_COLUMNS)
            assert len(rows) == (len(N_list) if N_list is not None else n_max - n_min + 1) > 0

    check()
    assert sum(seen.values()) == 600
    # both outcomes these flags can reach were reached, to stdout and to a file
    assert all(seen[code, to_file] for code in (0, 2) for to_file in (False, True)), seen
