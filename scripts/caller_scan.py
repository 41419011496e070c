#!/usr/bin/env python3
"""Caller scan: every public item under `crates/*/src` has a caller.

Lists each `pub fn` / `pub const` / `pub static` under `crates/*/src`
(`rsn-bench` excluded) whose name appears in no other `.rs` file (crates,
`tests/`, `examples/`, `src/`, `perfbench/src/`), with a verdict:

* `DEAD`: no caller at all;
* `TEST-ONLY`: only its own file's `mod tests`;
* `FILE-LOCAL`: its own file's non-test code.

Comments are skipped except code inside doc-test fences, and `pub use ...;`
re-exports are not callers. A method (a `pub fn` with a `self` receiver)
is called only by its call shapes, `.name(` and `::name`, so a field or a
local of the same name is no caller. Other names are matched as words. The
scan is type-blind all the same: a name hides behind every other item of
that name (`new`, `len`, or a `charge` or `cause` that two budget types
both define), so treat the list as a floor.

To check one item by hand, make it `pub(crate)` and build the workspace
and perfbench (`cargo build --release --all-targets` and `cargo build
--release --manifest-path perfbench/Cargo.toml`). A build error names a
caller outside the crate; if the build succeeds, rustc's `dead_code`
warning says whether anything in the crate still calls it.

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
# The rest of a `pub fn` declaration when its first parameter is `self`.
RECEIVER = re.compile(r"\s*(<[^(]*>)?\s*\(\s*(&\s*('\w+\s+)?)?(mut\s+)?self\b")
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
            name = d.group(2)
            method = d.group(1) == "fn" and RECEIVER.match(body, d.end())
            if method:
                word = re.compile(r"\.\s*" + name + r"\s*(::<[^(]*>)?\(|::" + name + r"\b")
            else:
                word = re.compile(r"\b" + name + r"\b")
            if any(word.search(texts[g]) for g in scope if g != f):
                continue
            # A word match counts the declaration itself; a call shape does not.
            n_own = len(word.findall(body)) - (0 if method else 1)
            n_test = len(word.findall(tests))
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
