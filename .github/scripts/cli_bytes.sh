#!/usr/bin/env bash
# Run a fixed list of `python -m harmonic_schwarz` calls on two source
# trees and fail on any difference in stdout or exit code.
#
#   .github/scripts/cli_bytes.sh BASE_SRC HEAD_SRC
#
# BASE_SRC and HEAD_SRC are the `src` directories of the two checkouts.
set -u
base_src=$1
head_src=$2
calls=(
  "bound --n=2 --m=1 --r=0.5 --a=0.3 --b=0.4 --format=json"
  "bound --n=2 --m=1 --r=0.5 --a=0.3 --b=0 --format=csv"
  "bound --n=3 --m=2 --r=0.6 --a=0.25,-0.1 --b=-0.35 --format=json"
  "bound --n=3 --m=2 --r=0.6 --a=0.3,-0.4 --b=0 --e=0.6,-0.48,0.64 --format=csv"
  "bound --n=4 --m=2 --r=0.7 --a=0.2,0.3 --b=0.3 --e=-0.3,0.4,-0.866 --format=json"
  "bound --n=4 --m=3 --r=0.5 --a=0.1,0.2,-0.3 --b=-0.2 --format=csv"
  "bound --n=3 --m=2 --r=0.97 --a=-0.3,0.5 --b=0.2 --format=json"
  "bound --n=2 --m=2 --r=0.97 --a=0.4,0 --b=0 --e=0.8,0,-0.6 --format=csv"
  "bound --n=3 --m=2 --r=0.5 --a=0.3,0 --b=1e-9 --format=json"
  "bound --n=4 --m=3 --r=0.999 --a=0.1,1e-5,0 --b=0 --format=csv"
  "bound --n=16 --m=8 --r=0.6 --a=0.2,0.1,-0.1,0.05,0,0.1,-0.2,0.1 --b=0.3 --format=json"
  "region --n=3 --m=2 --r=0.5 --a=0.3,-0.2 --b=0.35 --directions=64 --seed=7"
  "region --n=2 --m=1 --r=0.97 --a=0.2 --b=-0.3 --directions=64"
  "region --n=4 --m=3 --r=0.99 --a=0.2,1e-7,0 --b=0 --directions=100 --seed=3"
  "extremal --n=3 --m=2 --r=0.6 --a=0.25,-0.1 --b=-0.35 --format=csv"
  "extremal --n=2 --m=1 --r=0.5 --a=0.3 --b=0 --format=json"
  "classical --n=3 --r=0.97"
  "classical --n=2 --r=0.5 --format=csv"
  "extremal --n=3 --m=2 --r=0.5 --a=0.3,0 --b=1e-9 --nodes=5 --format=json"
  "bound --n=2 --m=1 --r=0.5 --a=0.9 --b=0.5"
  "verify --suite moments,jacobian,signs"
  "verify --suite harmonicity"
)
outdir=$(mktemp -d)
trap 'rm -rf "$outdir"' EXIT
status=0
for call in "${calls[@]}"; do
  for side in base head; do
    if [ "$side" = base ]; then src=$base_src; else src=$head_src; fi
    code=0
    # shellcheck disable=SC2086  # each call is a word list
    PYTHONPATH="$src" python -m harmonic_schwarz $call > "$outdir/$side.out" || code=$?
    echo "exit $code" >> "$outdir/$side.out"
  done
  if cmp -s "$outdir/base.out" "$outdir/head.out"; then
    echo "same      $(wc -c < "$outdir/head.out") bytes, $(tail -n 1 "$outdir/head.out"): $call"
  else
    echo "DIFFERENT: $call"
    diff "$outdir/base.out" "$outdir/head.out" | head -n 20
    status=1
  fi
done
exit $status
