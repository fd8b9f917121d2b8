# Sourced by build.sh and run.sh: sets SPARK_HOME, from the environment or
# else from the spark-submit found on PATH.
if [ -z "${SPARK_HOME:-}" ]; then
  submit="$(command -v spark-submit || true)"
  [ -n "$submit" ] || { echo "perfbench: set SPARK_HOME or put spark-submit on PATH" >&2; exit 1; }
  SPARK_HOME="$(cd "$(dirname "$(readlink -f "$submit")")/.." && pwd)"
fi
[ -d "$SPARK_HOME/jars" ] || { echo "perfbench: no jars directory under SPARK_HOME=$SPARK_HOME" >&2; exit 1; }
export SPARK_HOME
