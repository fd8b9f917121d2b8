#!/usr/bin/env bash
# Pipeline benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload corpus_sf0.1 --seed 7 --seconds 10 --trace 0
#
# Builds the program and the benchmark if needed (perfbench/build.sh), then
# runs one benchmark process; its last line of standard output is the JSON
# result. `--selftest` instead runs the gate self-tests.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bash "$here/build.sh" >&2
. "$here/spark_home.sh"

mkdir -p .bench_build/tmp
opens=()
for p in java.lang java.lang.invoke java.lang.reflect java.io java.net java.nio \
         java.util java.util.concurrent java.util.concurrent.atomic jdk.internal.ref \
         sun.nio.ch sun.nio.cs sun.security.action sun.util.calendar; do
  opens+=("--add-opens=java.base/$p=ALL-UNNAMED")
done

exec java -Xmx3g "${opens[@]}" -Djava.io.tmpdir=.bench_build/tmp \
  -cp ".bench_build/classes:$SPARK_HOME/jars/*" repro.perfbench.Main "$@"
