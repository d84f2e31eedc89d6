#!/usr/bin/env sh
# Rust line count per top-level source directory and in total: the
# ROADMAP north star's "target is down" number. Counts every line of
# every tracked-or-untracked *.rs file (build output excluded). Pass a
# checkout root to count another tree, e.g. a clone of the parent commit.
set -eu

cd "${1:-$(dirname "$0")/..}"

total=0
for dir in crates src shims tests examples; do
    [ -d "$dir" ] || continue
    lines=$(find "$dir" -name target -prune -o -name '*.rs' -type f -print0 |
        xargs -0 cat | wc -l)
    printf '%-10s %7d\n' "$dir" "$lines"
    total=$((total + lines))
done
printf '%-10s %7d\n' total "$total"
