"""Malformed frame and certificate files keep to the CLI's exit-code contract, by a property test.

Each example starts from a valid (4, 9) frame and its n = 10 certificate. It edits the frame and, independently,
the certificate, or makes one edit to the field both files hold (N or m), so that the two still agree with each
other. Then it runs ``select`` on the frame and ``verify`` on both files, in process. An edit replaces one node
with a value that a loader must refuse or a check must catch, drops the node, cuts the text at a byte, or puts a
byte order mark in front of it.
"""

import contextlib
import io
import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from framesel import harmonic_frame, select_subset
from framesel.cli import main
from framesel.frames import frame_to_dict
from framesel.selector import certificate_to_dict

NEST = "@nest@"  # stands in for a nest 10^5 deep, spliced into the text after json writes the rest
DROP = object()  # removes the node in place of replacing it
VALUES = ({}, [], "x", True, None, -1, 2**70, 10**400, 1e308, NEST, DROP)
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
