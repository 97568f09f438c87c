#!/usr/bin/env bash
# Byte-identity proof of the simulator's determinism contract.
#
#   scripts/identity.sh          # this checkout, -j 1 against -j 4
#   scripts/identity.sh BASE     # and this checkout against commit BASE
#
# Builds vessel-sim from this checkout and runs a fixed corpus: every
# experiment at a small fixed configuration, with --trace, --metrics and
# --attrib files on fig3 and the small fleet and gaps runs, and a
# `check` sweep over every scenario and fault profile. It exits 1 before
# any run if the corpus and `vessel-sim list` disagree on the ids. The corpus runs at
# -j 1 and at -j 4; with BASE, BASE is built from a `git archive` copy in
# a temporary directory and its corpus runs at -j 1. Each run gets a
# sha256 manifest of every stdout, exit status and written file. The
# script lists every file whose digest differs between manifests and
# exits 1 if any does.
#
# Everything is written under ./identity in the current directory, as
# the bench writes its records to the current directory: head/j1,
# head/j4 and base/j1 hold the outputs, and *.manifest files the digests.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
base=${1:-}
out=$PWD/identity
mkdir -p "$out"

# name | vessel-sim arguments | 1 = also write trace, metrics and attrib
corpus=(
  "table1|table1|0"
  "fig1|fig1 --cores 2|0"
  "fig2|fig2|0"
  "fig3|fig3|1"
  "fig9|fig9 --cores 2|0"
  "fig10|fig10|0"
  "fig11|fig11|0"
  "fig12|fig12|0"
  "fig13a|fig13a --cores 2|0"
  "fig13b|fig13b|0"
  "ablation|ablation|0"
  "burst|burst --cores 2|0"
  "fleet|fleet --machines 4 --policies rr,ll|1"
  "gaps|gaps --schedulers vessel,caladan --duties 0.2,0.5 --cores 2 --duration-ms 5|1"
  # No --trace here: a global trace holds the probe gate open and would
  # hide a probe lost by a scope on another domain.
  "check|check --seeds 2|0"
)

run_corpus() { # binary, output directory, -j
  local bin=$1 dir=$2 jobs=$3 entry name args artifacts status
  rm -rf "$dir"
  mkdir -p "$dir"
  for entry in "${corpus[@]}"; do
    IFS='|' read -r name args artifacts <<<"$entry"
    local extra=()
    if [ "$artifacts" = 1 ]; then
      extra=(--trace "$dir/$name.trace.json" --metrics "$dir/$name.metrics.json"
        --attrib "$dir/$name.attrib.json")
    fi
    status=0
    # shellcheck disable=SC2086 # $args is a word list on purpose
    "$bin" $args -j "$jobs" ${extra[@]+"${extra[@]}"} \
      >"$dir/$name.out" 2>"$dir/$name.err" || status=$?
    echo "$status" >"$dir/$name.status"
    echo "identity: $dir: $name exit $status"
  done
  (cd "$dir" && sha256sum -- *.out *.status *.json) >"$dir.manifest"
}

failed=0
compare() { # label, manifest, manifest
  if diff -u "$2" "$3" >"$out/$1.diff"; then
    echo "identity: $1: $(wc -l <"$2") files identical"
  else
    echo "identity: $1: files differ:"
    grep '^[-+][^-+]' "$out/$1.diff" | awk '{print "  " $2}' | sort -u
    failed=1
  fi
}

# A copy, so a rebuild of the checkout cannot swap the binary mid-run.
(cd "$repo" && dune build ./bin/vessel_sim.exe)
head_bin=$out/vessel_sim.exe
cp -f "$repo/_build/default/bin/vessel_sim.exe" "$head_bin"

# The corpus covers exactly the ids `vessel-sim list` prints, bar `all`.
listed=$("$head_bin" list | awk 'NF == 0 { exit } $1 != "all" { print $1 }' | sort)
named=$(for entry in "${corpus[@]}"; do echo "${entry%%|*}"; done | sort)
only_listed=$(comm -23 <(echo "$listed") <(echo "$named"))
only_named=$(comm -13 <(echo "$listed") <(echo "$named"))
if [ -n "$only_listed$only_named" ]; then
  for id in $only_listed; do echo "identity: $id is listed but not in the corpus"; done
  for id in $only_named; do echo "identity: $id is in the corpus but not listed"; done
  exit 1
fi
run_corpus "$head_bin" "$out/head/j1" 1
run_corpus "$head_bin" "$out/head/j4" 4
compare "j1-vs-j4" "$out/head/j1.manifest" "$out/head/j4.manifest"

if [ -n "$base" ]; then
  # Built outside $out, which may sit inside this checkout's dune tree.
  src=$(mktemp -d)
  trap 'rm -rf "$src"' EXIT
  git -C "$repo" archive "$base" | tar -x -C "$src"
  (cd "$src" && dune build --root . ./bin/vessel_sim.exe)
  run_corpus "$src/_build/default/bin/vessel_sim.exe" "$out/base/j1" 1
  compare "base-vs-head" "$out/base/j1.manifest" "$out/head/j1.manifest"
fi

echo "identity: outputs in $out"
exit "$failed"
