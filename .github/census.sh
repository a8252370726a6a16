#!/bin/sh
# The coverage census: which non-test functions of the module do the
# engine's end-to-end tests never reach? It runs the root, internal/core,
# internal/cluster, internal/jobs and cmd/... tests (not the soak, whose
# reach varies from run to run) with coverage over the module's library
# and command packages (the sample programs under examples/ are left out),
# lists the functions at 0.0%, and fails when one of them is not on the
# allowlist beside this script, census-allow.txt, where every entry
# carries its reason. Code that only its own package's tests call shows
# up here; it goes, or moves into those tests, rather than onto the list.
#
#   sh .github/census.sh            # from the repository root
set -eu
here=$(dirname "$0")
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
if ! go test -count=1 -coverpkg=embsp,embsp/internal/...,embsp/cmd/... -coverprofile="$out/cover.out" \
	. ./internal/core ./internal/cluster ./internal/jobs ./cmd/... >"$out/test.log" 2>&1; then
	cat "$out/test.log"
	exit 1
fi
go tool cover -func="$out/cover.out" | awk '$NF == "0.0%" { f = $1; sub(/:[0-9]+:$/, "", f); print f, $2 }' | sort -u >"$out/zero.txt"
sed 's/#.*//' "$here/census-allow.txt" | awk 'NF { print $1, $2 }' | sort -u >"$out/allow.txt"
stale=$(comm -13 "$out/zero.txt" "$out/allow.txt")
if [ -n "$stale" ]; then
	echo "census: allowlisted, but reached now (take them off the list):"
	echo "$stale"
fi
new=$(comm -23 "$out/zero.txt" "$out/allow.txt")
if [ -n "$new" ]; then
	echo "census: functions no test reaches that are not on $here/census-allow.txt:"
	echo "$new"
	exit 1
fi
echo "census: $(wc -l <"$out/zero.txt") functions at 0.0%, all allowlisted"
