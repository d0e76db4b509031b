#!/usr/bin/env sh
# Mutation check: every fast path and mended bug in the ledger has a test
# that fails without it.
#
#   scripts/mutants.sh [ledger]      (default: scripts/mutants.ledger)
#
# Copies the checkout's files (tracked and untracked, not ignored) into a
# temporary directory, runs every test the ledger names there once
# unmutated (each must pass), then for each entry applies its one text
# replacement to a fresh copy of the file, runs the entry's tests, and
# restores the file. The check fails if an entry's text does not occur
# exactly once, if a build fails, or if any named test passes under its
# mutant. The copies share one target directory, so each mutant rebuilds
# only what it touched.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
ledger=${1:-"$root/scripts/mutants.ledger"}
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

mkdir "$work/tree"
# `--ignore-failed-read`: a tracked file deleted in the checkout is skipped.
(cd "$root" && git ls-files -co --exclude-standard -z |
    xargs -0 tar -cf - --ignore-failed-read 2>/dev/null) | tar -C "$work/tree" -xf -
export CARGO_TARGET_DIR="$work/target"
cd "$work/tree"

# Runs one named test (`tests/<target>.rs::<name>`); its exit status.
run_test() {
    target=${1%%::*}
    target=${target#tests/}
    target=${target%.rs}
    cargo test -q --offline --test "$target" -- --exact "${1#*::}" >"$work/out" 2>&1
}

# The named tests, one a line.
tests=$(awk '$1 == "fails" { print $2 }' "$ledger" | sort -u)

echo "mutants: building the unmutated copy"
cargo test -q --offline --no-run >/dev/null 2>&1 || {
    echo "mutants: the unmutated copy does not build"
    exit 1
}
for t in $tests; do
    run_test "$t" || {
        cat "$work/out"
        echo "mutants: $t fails without a mutant"
        exit 1
    }
done

# Applies `text` → `with` to `file`, failing unless `text` occurs once.
apply() {
    cp "$file" "$work/original"
    TEXT=$text WITH=$with awk '
        BEGIN { text = ENVIRON["TEXT"]; with = ENVIRON["WITH"] }
        { line = $0; out = ""
          while ((i = index(line, text)) > 0) {
              out = out substr(line, 1, i - 1) with; line = substr(line, i + length(text)); n++
          }
          print out line }
        END { if (n != 1) { print "occurs " n " times" > "/dev/stderr"; exit 1 } }
    ' "$work/original" >"$file"
}

survived=0
entries=0
check() {
    [ -n "$file" ] || return 0
    entries=$((entries + 1))
    echo "mutants: $file: '$text' -> '$with'"
    if ! apply; then
        echo "mutants: the text does not occur exactly once"
        exit 1
    fi
    cargo test -q --offline --no-run >"$work/out" 2>&1 || {
        cat "$work/out"
        echo "mutants: the mutant does not build"
        exit 1
    }
    for t in $fails; do
        if run_test "$t"; then
            echo "mutants:   SURVIVED $t"
            survived=$((survived + 1))
        else
            echo "mutants:   caught by $t"
        fi
    done
    cp "$work/original" "$file"
    file= text= with= fails=
}

file= text= with= fails=
while IFS= read -r line || [ -n "$line" ]; do
    case $line in
    '#'*) continue ;;
    '') check ;;
    *)
        key=${line%%[[:space:]]*}
        value=$(printf '%s' "${line#"$key"}" | sed 's/^[[:space:]]*//')
        case $key in
        file) file=$value ;;
        text) text=$value ;;
        with) with=$value ;;
        fails) fails="$fails $value" ;;
        *)
            echo "mutants: unknown field '$key'"
            exit 1
            ;;
        esac
        ;;
    esac
done <"$ledger"
check

echo "mutants: $entries entries, $survived surviving test(s)"
[ "$survived" -eq 0 ]
