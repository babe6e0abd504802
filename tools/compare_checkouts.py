"""Compare two checkouts of nuttq: code lines and CLI output.

    python tools/compare_checkouts.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts (each holding src/nuttq).
The script prints

- the code lines of each src/nuttq/*.py in both checkouts, counting no
  blank line, no comment-only line and no docstring line;
- every invocation of a fixed CLI corpus whose stdout, exit code or
  written file differs between the two.

Each checkout runs the whole corpus in one subprocess that imports nuttq
from that checkout's src/ and calls nuttq.cli.main in-process, with stdout
captured and an uncaught exception recorded as its last traceback line.
The subprocess works in a fresh temporary directory, so the relative
paths the corpus writes to are the same strings in both runs.  Exit code:
0 when every invocation matches, 1 otherwise.

CI runs it on one checkout twice (``python tools/compare_checkouts.py . .``):
the corpus must then give the same bytes in two fresh processes, which is
the CLI's determinism contract.  pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tokenize
import traceback
from pathlib import Path

_NUTTALL = ["--m", "2,3.2", "--n", "1,2.1", "--a", "1,2.5", "--b", "0.5,2"]
_TORONTO = ["--m", "2,3", "--n", "1,1.5", "--r", "0.5,2", "--B", "1,3"]

# One argv per invocation.  A golden file named in this list is written to
# the working directory before the corpus runs (see _FILES).
CORPUS: list[list[str]] = [
    *[["eval", fn, "--m", "2", "--n", "1", "--a", "1", "--b", "2", "--r", "1",
       "--B", "2", "--method", method, *fmt]
      for fn in ("nuttall", "nuttall_norm", "marcum", "toronto")
      for method in ("truncated", "adaptive", "bound_1f1")
      for fmt in ([], ["--format", "json"])],
    ["eval", "nuttall", "--m", "1.5", "--n", "0.5", "--a", "1", "--b", "2",
     "--method", "closed_half"],
    ["eval", "toronto", "--m", "2", "--n", "0.5", "--r", "1", "--B", "2",
     "--method", "closed_half", "--format", "json"],
    ["eval", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "2",
     "--method", "closed_half"],
    ["eval", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2",
     "--method", "truncated", "--terms", "0"],
    ["eval", "nuttall", "--m", "2", "--n", "1", "--a", "1"],
    ["eval", "toronto", "--m", "2", "--r", "1", "--format", "json"],
    ["eval", "marcum", "--m", "2", "--a", "1", "--b", "2", "--max-terms", "3"],
    ["eval", "nuttall", "--m", "2", "--n", "1", "--a", "7", "--b", "2"],
    ["eval", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "1e-160"],
    ["eval", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "0"],
    *[["eval", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2", *flag]
      for flag in (["--tol", "1e-15"], ["--tol", "nan"], ["--tol", "inf"],
                   ["--max-terms", "0"])],
    # closed forms that cancel (a wrong value with exit 0) and the seams
    # b = a, B = r at the top of the box
    ["eval", "nuttall_norm", "--m", "9.5", "--n", "9.5", "--a", "0.5",
     "--b", "1", "--method", "closed_half"],
    ["eval", "toronto", "--m", "10", "--n", "0.5", "--r", "6", "--B", "0.1",
     "--method", "closed_half"],
    ["eval", "nuttall_norm", "--m", "9.5", "--n", "9.5", "--a", "6",
     "--b", "6", "--method", "closed_half"],
    ["eval", "toronto", "--m", "10", "--n", "4.5", "--r", "3", "--B", "3",
     "--method", "closed_half"],
    *[["compare", fn, *grid, *extra]
      for fn, grid in (("nuttall", _NUTTALL), ("nuttall_norm", _NUTTALL),
                       ("marcum", _NUTTALL[:2] + _NUTTALL[4:]),
                       ("toronto", _TORONTO))
      for extra in ([], ["--with-bounds"],
                    ["--with-bounds", "--method", "adaptive", "--format", "json"],
                    ["--scheme", "gauss", "--terms", "5"])],
    ["compare", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2",
     "--assert-rel-err", "1e-30"],
    ["compare", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "2",
     "--with-bounds", "--method", "adaptive", "--terms", "0"],
    ["compare", "nuttall", "--m", "2", "--n", "1", "--a", "", "--b", "1"],
    ["compare", "nuttall", "--m", "2,3", "--n", "1", "--a", "1", "--b", "1"],
    ["compare", "nuttall", "--m", "2", "--n", "1", "--a", "1,x", "--b", "1"],
    ["compare", "nuttall", "--m", "2", "--n", "1",
     "--a", ",".join(["1"] * 101), "--b", ",".join(["1"] * 100)],
    ["compare", "nuttall", "--m", "11", "--n", "1", "--a", "1", "--b", "1"],
    *[["bounds", fn, *grid, "--terms", terms, *fmt]
      for fn, grid in (("nuttall", _NUTTALL), ("toronto", _TORONTO))
      for terms in ("5", "1,5,5,20", "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15")
      for fmt in ([], ["--format", "json"])],
    ["bounds", "toronto", "--m", "2,2", "--n", "0.5,2.5", "--r", "1,1",
     "--B", "3", "--terms", "1,5,5", "--format", "json"],
    ["bounds", "nuttall", "--m", "0.2,2", "--n", "1.7,1", "--a", "1,1",
     "--b", "2", "--terms", "1,5"],
    ["bounds", "nuttall", "--m", "3.2", "--n", "2.1", "--a", "1.3",
     "--b", "0.6", "--terms", "1,3"],
    ["bounds", "nuttall", "--m", "9", "--n", "9", "--a", "0.5", "--b", "1"],
    ["bounds", "toronto", "--m", "2", "--n", "1", "--r", "2", "--B", "2"],
    ["bounds", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "0",
     "--terms", "1,2"],
    ["bounds", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "1e-160",
     "--terms", "3"],
    ["bounds", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2",
     "--terms", "0,5"],
    ["bounds", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2",
     "--terms", "500,501"],
    ["bounds", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2",
     "--terms", "5x"],
    ["bounds", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2",
     "--terms", "500"],
    *[["bounds", fn, "--kind", "kummer", *grid, *fmt]
      for fn, grid in (("nuttall", _NUTTALL), ("toronto", _TORONTO))
      for fmt in ([], ["--format", "json"])],
    ["bounds", "toronto", "--kind", "kummer", "--m", "0.2", "--n", "1.5",
     "--r", "1", "--B", "1"],
    *[["figure", fig, *fmt] for fig in ("f1", "f2", "f3", "f4")
      for fmt in ([], ["--format", "json"])],
    ["figure", "f4", "--output", "f4.csv"],
    ["golden"],
    ["golden", "--format", "json"],
    ["golden", "--path", "mixed_tol.txt"],
    ["golden", "--path", "missing.txt"],
    ["golden", "--path", "empty.txt", "--format", "json"],
    ["golden", "--regenerate", "--path", "out/golden.txt"],
    ["golden", "--regenerate", "--path", "plain.txt/x.txt"],
    ["golden", "--regenerate", "--path", "out", "--format", "json"],
    *[[command, "--help"]
      for command in ("eval", "compare", "bounds", "figure", "golden")],
    ["--help"],
    ["eval", "nuttall"],
    ["bounds", "marcum", "--m", "2", "--n", "1"],
]

# Files the corpus reads, written to the working directory first.  Entry 3
# of mixed_tol.txt is moved by 1e-10 against a 1e-13 tol; entry 1 keeps a
# loose 1e-6 tol.
_FILES = {
    "mixed_tol.txt":
        "nuttall 1 0 1 1 1e-6 0.73287980379682016 0\n"
        "nuttall 2 1 1 2 1e-13 0.5301469081839657 0\n",
    "empty.txt": "# comments only\n",
    "plain.txt": "not a directory\n",
}
# Files the corpus writes, read back after the run.
_OUTPUTS = ("f4.csv", "out/golden.txt")


def code_lines(path: Path) -> int:
    """Lines of path holding code: no blank, comment-only or docstring line."""
    source = path.read_text()
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in skip:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines)


def _run_corpus() -> dict:
    """Run CORPUS in-process in the current directory; one record each."""
    import nuttq
    from nuttq.cli import main

    for name, text in _FILES.items():
        Path(name).write_text(text)
    records = []
    for argv in CORPUS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                code = "uncaught " + traceback.format_exception_only(
                    type(exc), exc)[-1].strip()
        records.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    files = {name: Path(name).read_text() if Path(name).is_file() else None
             for name in _OUTPUTS}
    return {"nuttq": nuttq.__file__, "records": records, "files": files}


def _corpus_of(checkout: Path) -> dict:
    src = (checkout / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--worker"], cwd=work, env=env,
                              capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"corpus run failed in {checkout}:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    if not Path(result["nuttq"]).resolve().is_relative_to(src):
        raise SystemExit(f"{checkout}: imported nuttq from {result['nuttq']}")
    return result


def main(argv: list[str]) -> int:
    if argv == ["--worker"]:
        json.dump(_run_corpus(), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (Path(a) for a in argv)
    names = sorted({p.name for c in (parent, change)
                    for p in (c / "src" / "nuttq").glob("*.py")})
    print(f"{'code lines':<16}{'parent':>8}{'change':>8}")
    totals = [0, 0]
    for name in names:
        counts = [code_lines(c / "src" / "nuttq" / name)
                  if (c / "src" / "nuttq" / name).exists() else 0
                  for c in (parent, change)]
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{name:<16}{counts[0]:>8}{counts[1]:>8}")
    print(f"{'total':<16}{totals[0]:>8}{totals[1]:>8}")

    before, after = _corpus_of(parent), _corpus_of(change)
    differ = 0
    for old, new in zip(before["records"], after["records"]):
        fields = [k for k in ("code", "stdout", "stderr") if old[k] != new[k]]
        if fields:
            differ += 1
            print(f"DIFFERS ({', '.join(fields)}): nuttq {' '.join(old['argv'])}")
            if "code" in fields:
                print(f"    exit {old['code']} -> {new['code']}")
    for name in _OUTPUTS:
        if before["files"][name] != after["files"][name]:
            differ += 1
            print(f"DIFFERS: written file {name}")
    print(f"{len(CORPUS)} invocations, {len(_OUTPUTS)} written files, "
          f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
