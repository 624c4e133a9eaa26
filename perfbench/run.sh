#!/usr/bin/env bash
# Builds the tatooine mediator and the benchmark program from source, then
# runs one workload:
#
#   bash perfbench/run.sh --workload newsroom --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes lands
# under .bench_build/ in the current directory. The last line of standard
# output is the run's JSON result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/tatooine" ]; then
	echo "run.sh: no tatooine source here (go.mod, cmd/tatooine); run it from the repository root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home/.config/go/telemetry"
# Keep the toolchain's caches, settings and temporary files inside the
# checkout, and never let it reach for the network.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
# With telemetry on, every go command may fork a detached telemetry
# process that outlives it; turning it off keeps the run to its own
# processes.
printf 'off' >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/tatooine" ./cmd/tatooine >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" run -bin "$out/bin/tatooine" -work "$out" "$@"
