#!/usr/bin/env bash
# Line counts behind ROADMAP's size figures, so they come from a command
# rather than from each PR's hand count. For every crate: all lines of
# Rust under crates/<name>/ (the "~31k lines under crates/" figure is
# their sum), and the non-test lines of its src/ — the lines before each
# file's first top-level `#[cfg(test)]`, comments and blanks included.
# `--files <crate>` lists that crate's src/ files one by one, for the
# per-file before/after tables in CHANGES.md. Run from anywhere:
#
#   scripts/loc.sh [--files <crate>]
#
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of $1 before its first top-level `#[cfg(test)]`.
non_test() {
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

if [ "${1:-}" = "--files" ]; then
    find "crates/$2/src" -name '*.rs' | sort | while read -r f; do
        printf '%6d  %s\n' "$(non_test "$f")" "$f"
    done
    exit 0
fi

printf '%-14s %9s %13s\n' crate all-lines src-non-test
all_total=0
src_total=0
for dir in crates/*/; do
    all=$(find "$dir" -name '*.rs' -exec cat {} + | wc -l)
    src=0
    while read -r f; do
        src=$((src + $(non_test "$f")))
    done < <(find "${dir}src" -name '*.rs')
    printf '%-14s %9d %13d\n' "$(basename "$dir")" "$all" "$src"
    all_total=$((all_total + all))
    src_total=$((src_total + src))
done
printf '%-14s %9d %13d\n' total "$all_total" "$src_total"
repro=crates/experiments/src/bin/repro.rs
printf '\n%s: %d non-test lines, %d of them not `//` comments\n' "$repro" \
    "$(non_test "$repro")" \
    "$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { n++ } END { print n + 0 }' "$repro")"
