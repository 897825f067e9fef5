#!/usr/bin/env bash
# Fails when README.md names a command-line flag that nothing defines:
# every backticked `--flag` (or `--flag=value`) in README.md must appear
# somewhere in src/, examples/, bench/, perfbench/, tools/ or .github/,
# either as "flag" (a flag-parser lookup) or as --flag (a usage comment,
# a script, a CI step).
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
exit "$status"
