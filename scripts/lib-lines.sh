#!/bin/sh
# Line count of lib/'s OCaml sources (.ml + .mli) in the working tree,
# and its delta against a git revision:
#
#   scripts/lib-lines.sh [BASE]      # BASE defaults to HEAD~1
#
# Every change reports this number: same behaviour from less code.
set -eu

cd "$(dirname "$0")/.."

count() { find lib -type f \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l; }

base="${1:-HEAD~1}"
now=$(count)
if git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
  before=$(git archive "$base" lib \
    | tar -xO --wildcards '*.ml' '*.mli' | wc -l)
  printf 'lib/ .ml+.mli lines: %d (%+d vs %s)\n' "$now" "$((now - before))" "$base"
else
  printf 'lib/ .ml+.mli lines: %d (no revision %s to compare)\n' "$now" "$base"
fi
