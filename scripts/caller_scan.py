#!/usr/bin/env python3
"""Caller scan: every public item under `crates/*/src` has a caller.

Lists each `pub fn` / `pub const` / `pub static` under `crates/*/src`
(`rsn-bench` excluded) whose name appears in no other `.rs` file (crates,
`tests/`, `examples/`, `src/`, `perfbench/src/`), with a verdict:

* `DEAD`: no caller at all;
* `TEST-ONLY`: only its own file's `mod tests`;
* `FILE-LOCAL`: its own file's non-test code.

Comments are skipped except code inside doc-test fences, and `pub use ...;`
re-exports are not callers. Names are matched as words, so a common name
(`new`, `len`) hides behind other items of that name; treat the list as a
floor.

The rule it serves: a `DEAD` or `TEST-ONLY` function is deleted with the
test lines whose subject it is, and a `FILE-LOCAL` function becomes
private. `KEEPS` lists the entries kept on purpose. Any other entry makes
the script exit 1.

Run from the repository root:

    python3 scripts/caller_scan.py
"""

import glob
import re
import sys

# (verdict, item name): each kept on purpose.
KEEPS = {
    # Documented builder methods of a public policy type.
    ("TEST-ONLY", "with_filter"),
    ("TEST-ONLY", "with_default_budget"),
    # Constants that public docs link to (`GTree`, `resolve_auto` and the
    # `QueryBudget` ticker docs).
    ("FILE-LOCAL", "DEFAULT_LEAF_CAPACITY"),
    ("FILE-LOCAL", "DEFAULT_FANOUT"),
    ("FILE-LOCAL", "AUTO_SWEEP_CELL_COST"),
    ("FILE-LOCAL", "CHECK_INTERVAL"),
}

REEXPORT = re.compile(r"^\s*pub use [^;]*;", re.M)
DECL = re.compile(r"^\s*pub (fn|const|static) (\w+)", re.M)
TESTS = re.compile(r"#\[cfg\(test\)\]\s*mod tests")


def code(text):
    """The code of a Rust file: comment lines blanked, doc-test code kept,
    `pub use` re-exports removed."""
    out, fence = [], False
    for line in text.split("\n"):
        t = line.strip()
        if t.startswith("//"):
            body = t.lstrip("/!").strip()
            if body.startswith("```"):
                fence = not fence
                body = ""
            out.append(body.lstrip("#") if fence else "")
        else:
            out.append(line)
    return REEXPORT.sub(lambda m: "\n" * m.group(0).count("\n"), "\n".join(out))


def scan():
    own = sorted(glob.glob("crates/*/src/**/*.rs", recursive=True))
    extra = [
        f
        for d in ("tests", "examples", "src", "perfbench/src")
        for f in glob.glob(d + "/**/*.rs", recursive=True)
    ]
    scope = sorted(set(own + extra))
    texts = {}
    for f in scope:
        with open(f) as fh:
            texts[f] = code(fh.read())
    for f in own:
        if f.startswith("crates/bench/"):
            continue
        m = TESTS.search(texts[f])
        body, tests = (texts[f][: m.start()], texts[f][m.start() :]) if m else (texts[f], "")
        for d in DECL.finditer(body):
            word = re.compile(r"\b" + d.group(2) + r"\b")
            if any(word.search(texts[g]) for g in scope if g != f):
                continue
            n_own, n_test = len(word.findall(body)) - 1, len(word.findall(tests))
            verdict = "FILE-LOCAL" if n_own else ("TEST-ONLY" if n_test else "DEAD")
            line = body[: d.start()].count("\n") + 1
            yield verdict, f, line, d.group(1), d.group(2)


def main():
    unexpected = 0
    for verdict, f, line, kind, name in scan():
        kept = (verdict, name) in KEEPS
        unexpected += not kept
        note = "  (kept)" if kept else ""
        print(f"{verdict:10} {f}:{line} {kind} {name}{note}")
    if unexpected:
        print(f"{unexpected} public item(s) without a caller", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
