#!/usr/bin/env python3
"""List every library `pub fn` that no other Rust file names.

Scans the non-test part (the lines before a file's first `#[cfg(test)]`,
as the CI "Code size" step counts them) of every tracked `.rs` file under
`src/` and `crates/*/src`, leaving out `crates/shims/` and `src/bin/`
directories. A `pub fn` there is flagged when its name, as a whole word,
appears in no other tracked `.rs` file. `pub use` statements do not count
as naming a function: a re-export alone calls nothing.

A flagged function is either dead (delete it) or used only by its own file
(make it private). The check is by name only, so a dead function that
shares its name with anything in another file (a method of another type, a
local variable, a word in a comment) is not flagged: a false pass is
possible, a false failure is not.

Prints `file: pub fn name` per flagged function and exits 1 if there are
any. Takes no arguments; run it from anywhere inside the repository.
"""

import os
import re
import subprocess
import sys

# Files whose public functions have no caller yet on purpose, with why.
ALLOWLIST = {
    "crates/hydra-eval/src/tuning.rs": "ROADMAP item 20's caller",
}

PUB_FN = re.compile(r"^\s*pub\s+(?:const\s+|unsafe\s+|async\s+)*fn\s+([A-Za-z_][A-Za-z0-9_]*)", re.M)
PUB_USE = re.compile(r"\bpub\s+use\b[^;]*;", re.S)
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]", re.M)


def scanned(path):
    if path.startswith("crates/shims/") or "src/bin/" in path:
        return False
    return path.startswith("src/") or re.match(r"crates/[^/]+/src/", path) is not None


def main():
    root = subprocess.check_output(["git", "rev-parse", "--show-toplevel"], text=True).strip()
    os.chdir(root)
    paths = subprocess.check_output(["git", "ls-files", "*.rs"], text=True).split()
    texts = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            texts[path] = PUB_USE.sub("", f.read())

    words = {path: set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)) for path, text in texts.items()}
    flagged = []
    for path in sorted(p for p in paths if scanned(p) and p not in ALLOWLIST):
        text = texts[path]
        m = CFG_TEST.search(text)
        lib = text[: m.start()] if m else text
        for name in PUB_FN.findall(lib):
            if not any(name in w for other, w in words.items() if other != path):
                flagged.append((path, name))

    for path, name in flagged:
        print(f"{path}: pub fn {name}")
    if flagged:
        print(f"{len(flagged)} pub fn(s) named by no other file: delete them or make them private",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
