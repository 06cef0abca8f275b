#!/usr/bin/env bash
# Standing mutation check: every scripts/mutants/*.patch is a named source
# mutation that one test target must catch. Each is applied in turn to a
# scratch copy of the tree; only its target is rebuilt, and that target's
# ctest entry must FAIL (the mutant is killed). Prints a killed/total
# score and exits non-zero on any survivor, on a patch that no longer
# applies or builds, or if a target already fails on the unmutated copy.
#
#   scripts/mutants.sh [name ...]        # default: every patch
#
# DYCONITS_MUTANTS_DIR (default build-mutants) holds the copy (src/) and
# its Release build (build/); it is recreated on every run.
#
# Patch format: a unified diff with a/ and b/ path prefixes, preceded by
# '#' comment lines that describe the mutation, one of which is
# '# target: <ctest name>'. To add one, change a copy of the file and run
#   diff -u --label a/<path> --label b/<path> <path> <copy>
set -euo pipefail
cd "$(dirname "$0")/.."

work="${DYCONITS_MUTANTS_DIR:-build-mutants}"
jobs="$(nproc 2>/dev/null || echo 4)"

patches=()
if [ "$#" -gt 0 ]; then
  for name in "$@"; do patches+=("scripts/mutants/$name.patch"); done
else
  patches=(scripts/mutants/*.patch)
fi
target_of() { sed -n 's/^# target: *//p' "$1" | head -1; }
targets=()
for p in "${patches[@]}"; do
  [ -f "$p" ] || { echo "mutants: no such mutant: $p" >&2; exit 2; }
  t="$(target_of "$p")"
  [ -n "$t" ] || { echo "mutants: $p has no '# target:' line" >&2; exit 2; }
  case " ${targets[*]-} " in *" $t "*) ;; *) targets+=("$t") ;; esac
done

# A fresh copy of the tree as it stands (tracked and untracked files, less
# ignored ones), so uncommitted changes are what gets mutated.
rm -rf "$work"
mkdir -p "$work/src"
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
  tar --null -T - -cf - | tar -xf - -C "$work/src"
src="$work/src"
bld="$work/build"
log="$work/log.txt"
cmake -S "$src" -B "$bld" -DCMAKE_BUILD_TYPE=Release >"$log"

run_target() {
  ctest --test-dir "$bld" -R "^$1\$" --timeout 600 >>"$log" 2>&1
}

for t in "${targets[@]}"; do
  echo "-- baseline: $t"
  cmake --build "$bld" -j "$jobs" --target "$t" >>"$log" 2>&1
  if ! run_target "$t"; then
    echo "mutants: $t fails on the unmutated tree (see $log)" >&2
    exit 1
  fi
done

killed=0
failed=()
for p in "${patches[@]}"; do
  name="$(basename "$p" .patch)"
  t="$(target_of "$p")"
  if ! patch -d "$src" -p1 --forward --dry-run <"$p" >>"$log" 2>&1; then
    echo "STALE     $name: patch no longer applies"
    failed+=("$name")
    continue
  fi
  patch -d "$src" -p1 --forward --quiet <"$p" >>"$log"
  if ! cmake --build "$bld" -j "$jobs" --target "$t" >>"$log" 2>&1; then
    echo "NO BUILD  $name ($t)"
    failed+=("$name")
  elif run_target "$t"; then
    echo "SURVIVED  $name ($t passes)"
    failed+=("$name")
  else
    echo "killed    $name ($t)"
    killed=$((killed + 1))
  fi
  patch -d "$src" -p1 -R --quiet <"$p" >>"$log" 2>&1
done

echo "mutants: $killed/${#patches[@]} killed"
if [ "${#failed[@]}" -gt 0 ]; then
  echo "mutants: not killed: ${failed[*]} (build log: $log)" >&2
  exit 1
fi
