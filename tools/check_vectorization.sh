#!/usr/bin/env bash
# CI gate: the SoA fitting hot loops must stay compiler-vectorizable.
#
# Compiles src/core/kernels.cpp alone with -O3 -fopt-info-vec-optimized and
# asserts that every hot panel/batch function still contains at least one
# loop the auto-vectorizer accepted. The point is to catch the easy
# regression: someone adds a branch, an aliasing store or a libm call to a
# panel loop and the whole SoA layout silently degrades to scalar code.
#
# exprat_panel is deliberately NOT on the list: its exp() call is a libm
# scalar call and gcc will not vectorize it without -ffast-math/libmvec,
# which the bit-identity contract forbids.
#
# Usage: tools/check_vectorization.sh [compiler]   (default: g++)
set -u

CXX="${1:-g++}"
cd "$(dirname "$0")/.."
SRC=src/core/kernels.cpp

REPORT=$("$CXX" -O3 -std=c++20 -Isrc -fopt-info-vec-optimized \
         -c "$SRC" -o /dev/null 2>&1)
STATUS=$?
if [ $STATUS -ne 0 ]; then
  echo "$REPORT"
  echo "check_vectorization: $SRC failed to compile" >&2
  exit $STATUS
fi

# Line numbers of loops the vectorizer accepted.
VEC_LINES=$(printf '%s\n' "$REPORT" |
  sed -n "s|.*kernels\.cpp:\([0-9]*\):[0-9]*: optimized: loop vectorized.*|\1|p" |
  sort -n -u)
if [ -z "$VEC_LINES" ]; then
  printf '%s\n' "$REPORT"
  echo "check_vectorization: no vectorized loops reported at all" >&2
  exit 1
fi

# Every SoA hot function must contain at least one vectorized loop. A
# function's range is [its definition line, the next top-level definition).
HOT_FUNCS="rat22_panel rat23_panel rat33_panel cubicln_panel poly25_panel \
kernel_eval_panel_v kernel_denominator_panel"

DEF_LINES=$(grep -n '^[A-Za-z_][A-Za-z_0-9:<>& ]*(\|^[A-Za-z_][A-Za-z_0-9:<>& ]* [A-Za-z_]' "$SRC" |
  grep -v ';$' | cut -d: -f1)

fail=0
for fn in $HOT_FUNCS; do
  start=$(grep -n "^[a-z].* ${fn}(" "$SRC" | head -1 | cut -d: -f1)
  if [ -z "$start" ]; then
    echo "FAIL  $fn: definition not found in $SRC" >&2
    fail=1
    continue
  fi
  end=$(printf '%s\n' "$DEF_LINES" | awk -v s="$start" '$1 > s { print; exit }')
  [ -z "$end" ] && end=1000000
  hit=$(printf '%s\n' "$VEC_LINES" |
    awk -v s="$start" -v e="$end" '$1 >= s && $1 < e { print; exit }')
  if [ -z "$hit" ]; then
    echo "FAIL  $fn (lines $start..$end): no vectorized loop" >&2
    fail=1
  else
    echo "ok    $fn: loop at line $hit vectorized"
  fi
done

if [ $fail -ne 0 ]; then
  echo "check_vectorization: a hot SoA loop stopped vectorizing" >&2
  echo "full vectorizer report:" >&2
  printf '%s\n' "$REPORT" >&2
  exit 1
fi
echo "check_vectorization: all hot loops vectorize"
