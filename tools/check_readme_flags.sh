#!/usr/bin/env bash
# Fails when a documented command-line flag and the code disagree:
#   * every backticked `--flag` (or `--flag=value`) in README.md must appear
#     somewhere in src/, examples/, bench/, perfbench/, tools/ or .github/,
#     either as "flag" (a flag-parser lookup) or as --flag (a usage comment,
#     a script, a CI step);
#   * the usage block at the top of examples/estima_serve.cpp (its
#     "//     --name=..." lines) must list exactly the flags main() reads
#     (flags.integer/str/number("name", ...)), in both directions.
#
# Usage: bash tools/check_readme_flags.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for flag in $(grep -o '`--[A-Za-z0-9][A-Za-z0-9-]*' README.md | cut -c4- |
              sort -u); do
  if ! grep -rqF -e "\"$flag\"" -e "--$flag" \
       src examples bench perfbench tools .github; then
    echo "README.md names --$flag, which nothing in the tree defines" >&2
    status=1
  fi
done

daemon=examples/estima_serve.cpp
# The leading comment block only: it ends at the first line that is not a
# comment.
usage=$(awk '!/^\/\//{exit} {print}' "$daemon" |
        sed -n 's|^//[[:space:]]*--\([A-Za-z0-9-]*\)=.*|\1|p' | sort -u)
# Joined into one line first: a read may wrap before its name.
read_flags=$(tr '\n' ' ' < "$daemon" |
             { grep -o 'flags\.\(integer\|str\|number\)([[:space:]]*"[A-Za-z0-9-]*"' ||
               true; } |
             sed 's/.*"\(.*\)"/\1/' | sort -u)
if [ -z "$read_flags" ]; then
  echo "$daemon: found no flags.integer/str/number(\"...\") reads" >&2
  status=1
fi
for flag in $(comm -23 <(echo "$usage") <(echo "$read_flags")); do
  echo "$daemon usage lists --$flag, which main() does not read" >&2
  status=1
done
for flag in $(comm -13 <(echo "$usage") <(echo "$read_flags")); do
  echo "$daemon main() reads --$flag, which its usage does not list" >&2
  status=1
done
exit "$status"
