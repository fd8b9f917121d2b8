#!/usr/bin/env bash
# Build file of the pipeline benchmark: compiles the program (src/main/scala)
# together with the benchmark sources (perfbench/src) into
# .bench_build/classes with the Scala compiler shipped in the Spark
# distribution, so the benchmark needs neither sbt nor a dependency cache.
# Run from the repository root; rebuilds only when a source is newer than
# the last build.
set -euo pipefail

. "$(dirname "${BASH_SOURCE[0]}")/spark_home.sh"
out=.bench_build/classes
stamp=.bench_build/classes.stamp

[ -d src/main/scala ] || { echo "build.sh: no src/main/scala here; run from the repository root" >&2; exit 1; }
[ -d perfbench/src ]  || { echo "build.sh: no perfbench/src here; run from the repository root" >&2; exit 1; }

if [ -f "$stamp" ] && [ -z "$(find src/main perfbench/src -newer "$stamp" -type f -print -quit)" ]; then
  exit 0
fi

mkdir -p .bench_build
tmp="$(mktemp -d .bench_build/classes.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT
find src/main/scala perfbench/src -name '*.scala' -print > "$tmp.sources"
java -Xmx2g -cp "$SPARK_HOME/jars/*" scala.tools.nsc.Main \
  -usejavacp -nowarn -d "$tmp" "@$tmp.sources"
rm -f "$tmp.sources"
if [ -d src/main/resources ]; then cp -R src/main/resources/. "$tmp/"; fi
rm -rf "$out"
mv "$tmp" "$out"
trap - EXIT
touch "$stamp"
