#!/usr/bin/env bash
# Line counts of the Rust sources under each PATH (default: crates).
#
#   bash scripts/loc.sh [PATH...]
#
# For every .rs file: its total lines and its production lines, the lines before its
# first `#[cfg(test)]` (a file under a `tests/` directory is all test code: 0).  Then
# the same two sums per crate (the nearest directory above a file that holds a
# Cargo.toml) and over everything counted, and how many `#[expect(` attributes (the lint
# exemptions of DESIGN.md §15) those files hold.
set -euo pipefail
shopt -s globstar nullglob

[[ $# -gt 0 ]] || set -- crates

files=()
for path in "$@"; do
    if [[ -f $path ]]; then
        files+=("$path")
    elif [[ -d $path ]]; then
        for file in "${path%/}"/**/*.rs; do
            [[ $file == */target/* ]] || files+=("$file")
        done
    else
        echo "loc.sh: no such file or directory: $path" >&2
        exit 1
    fi
done

# The crate a file belongs to: the nearest directory above it holding a Cargo.toml.
crate_of() {
    local dir
    dir=$(dirname "$1")
    while [[ $dir != . && $dir != / && ! -f $dir/Cargo.toml ]]; do
        dir=$(dirname "$dir")
    done
    echo "$dir"
}

for file in "${files[@]}"; do
    printf '%s\t%s\n' "$(crate_of "$file")" "$file"
done | awk -F '\t' '
    BEGIN { printf "%7s %7s  %s\n", "total", "prod", "file" }
    {
        crate = $1; file = $2
        total = 0; prod = -1
        while ((getline line < file) > 0) {
            total++
            if (prod < 0 && line ~ /^[[:space:]]*#\[cfg\(test\)\]/) prod = total - 1
            if (line ~ /^[[:space:]]*#\[expect\(/) expects++
        }
        close(file)
        if (prod < 0) prod = total
        if (file ~ /(^|\/)tests\//) prod = 0
        printf "%7d %7d  %s\n", total, prod, file
        if (!(crate in crate_total)) order[++crates] = crate
        crate_total[crate] += total; crate_prod[crate] += prod
        all_total += total; all_prod += prod
    }
    END {
        printf "\n%7s %7s  %s\n", "total", "prod", "crate"
        for (i = 1; i <= crates; i++) {
            printf "%7d %7d  %s\n", crate_total[order[i]], crate_prod[order[i]], order[i]
        }
        printf "%7d %7d  %s\n", all_total, all_prod, "(all)"
        printf "\n%7d  #[expect(..)] attributes\n", expects
    }
'
