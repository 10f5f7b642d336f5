#!/bin/sh
# Size of lib/ (and of the CLI in bin/) in the working tree, each with
# its delta against a git revision:
#
#   scripts/lib-lines.sh [BASE]      # BASE defaults to HEAD~1
#
# - lines of OCaml source (.ml + .mli);
# - the largest lib/**/*.ml file and its lines (delta: the same file
#   at BASE);
# - optional arguments in the interfaces: every `?label:` in a
#   lib/**/*.mli signature, comments stripped;
# - fields of `Online.Service.options` (lib/online/service.mli);
# - lines of the CLI's OCaml source (bin/**/*.ml), so code moved from
#   lib/ into the CLI shows up rather than passing as a reduction.
#
# Every change reports these numbers: same behaviour from less code
# and fewer knobs.
set -eu

cd "$(dirname "$0")/.."

base="${1:-HEAD~1}"

# Each counter reads one stream: the tree's files, or BASE's.
lines() { wc -l; }
optionals() {
  perl -0777 -ne '1 while s/\(\*(?:(?!\(\*|\*\)).)*\*\)//gs;
    my $n = () = /\?[a-z_][A-Za-z0-9_\x27]*\s*:/g; print "$n\n"'
}
fields() { sed -n '/^type options = {/,/^}/p' | grep -c '^ *o_[a-z_]* :' || true; }

# "<lines> <path>" of the longest .ml file under lib/.
largest_ml() {
  find lib -type f -name '*.ml' -exec wc -l {} + | grep -v ' total$' \
    | sort -n | tail -n 1
}

tree_sources() { find lib -type f \( -name '*.ml' -o -name '*.mli' \) -exec cat {} +; }
tree_mli() { find lib -type f -name '*.mli' -exec cat {} +; }
base_sources() { git archive "$base" lib | tar -xO --wildcards '*.ml' '*.mli'; }
base_mli() { git archive "$base" lib | tar -xO --wildcards '*.mli'; }
tree_bin() { find bin -type f -name '*.ml' -exec cat {} +; }
base_bin() { git archive "$base" bin | tar -xO --wildcards '*.ml'; }

report() { # label now before
  printf '%s: %d (%+d vs %s)\n' "$1" "$2" "$(($2 - $3))" "$base"
}

now_lines=$(tree_sources | lines)
now_opts=$(tree_mli | optionals)
now_fields=$(fields < lib/online/service.mli)
now_bin=$(tree_bin | lines)
set -- $(largest_ml)
big_lines=$1 big_file=$2
if git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
  report "lib/ .ml+.mli lines" "$now_lines" "$(base_sources | lines)"
  report "largest lib/ .ml file $big_file" "$big_lines" \
    "$(git show "$base:$big_file" 2>/dev/null | lines)"
  report "lib/ .mli optional arguments" "$now_opts" "$(base_mli | optionals)"
  report "Online.Service.options fields" "$now_fields" \
    "$(git show "$base:lib/online/service.mli" | fields)"
  report "bin/ .ml lines" "$now_bin" "$(base_bin | lines)"
else
  printf 'lib/ .ml+.mli lines: %d (no revision %s to compare)\n' "$now_lines" "$base"
  printf 'largest lib/ .ml file %s: %d\n' "$big_file" "$big_lines"
  printf 'lib/ .mli optional arguments: %d\n' "$now_opts"
  printf 'Online.Service.options fields: %d\n' "$now_fields"
  printf 'bin/ .ml lines: %d\n' "$now_bin"
fi
