#!/usr/bin/env sh
# Knob-table gate: README's runner-knob table and the library must name the
# same environment knobs. A knob counts as read when a whole "RESCACHE_*"
# string literal appears in the non-test region of a library source file
# (everything before the first `#[cfg(test)]`, as in check_io_discipline.sh)
# under crates/*/src or src. A row is a README line opening with
# "| `RESCACHE_*` |". The check fails on a knob without a row, and on a row
# for a knob no library code reads.
#
# Run from the repository root: sh ci/check_knobs.sh
set -eu

read_in_code=$(find crates/*/src src -name '*.rs' | sort | while read -r file; do
    awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$file"
done | grep -o '"RESCACHE_[A-Z0-9_]*"' | tr -d '"' | sort -u)

in_readme=$(grep -o '^| `RESCACHE_[A-Z0-9_]*` |' README.md | tr -d '|` ' | sort -u)

if [ -z "$read_in_code" ] || [ -z "$in_readme" ]; then
    echo "check_knobs: found no knobs in the library or no knob rows in README.md" >&2
    exit 1
fi

status=0
for knob in $read_in_code; do
    if ! printf '%s\n' "$in_readme" | grep -qxF "$knob"; then
        echo "check_knobs: $knob is read in library source but has no row in README's knob table" >&2
        status=1
    fi
done
for knob in $in_readme; do
    if ! printf '%s\n' "$read_in_code" | grep -qxF "$knob"; then
        echo "check_knobs: README's knob table has a row for $knob, which no library code reads" >&2
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "check_knobs: FAILED — keep README's knob table in step with the code" >&2
else
    echo "check_knobs: OK ($(printf '%s\n' "$read_in_code" | wc -l | tr -d ' ') knobs)"
fi
exit "$status"
