#!/bin/sh
# Interval-query acceptance over the live sliding path: one hhh-live
# replay of a synthetic day through the Memento sliding stage (W=10s,
# step 1s), retaining every window frame in the in-process FrameRing and
# answering a time-interval query from it after the replay. The smoke
# asserts the end-to-end plumbing (stage -> snapshot frames -> ring ->
# query_interval) works from the CLI:
#
#   * the replay exits 0 and writes kMementoDetector frames to --out;
#   * the interval report merges >= 1 frame with group "memento" and
#     lists at least one HHH with a conditioned byte count;
#   * hhh-collector --stdin folds those frames, plus a memento_v6 replay
#     of a dual-stack scenario, into one "memento" and one "memento_v6"
#     group (the collector's Memento path end to end);
#   * an interval before any retained frame reports "no retained frame"
#     instead of failing;
#   * a sliding engine without --step is rejected with a pointed error.
#
# Usage: hhh_live_interval_smoke.sh LIVE COLLECTOR
set -eu

LIVE=$1
COLLECTOR=$2

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

"$LIVE" --synthetic=3 --seconds=30 --engine=memento --window=10 --step=1 \
    --out="$WORK/frames.bin" --retain=64 --query-interval=12:26 \
    2> "$WORK/live.err" || { echo "FAIL: sliding replay exited nonzero" >&2
                             sed 's/^/  hhh-live: /' "$WORK/live.err" >&2; exit 1; }

[ -s "$WORK/frames.bin" ] \
    || { echo "FAIL: no snapshot frames written to --out" >&2; exit 1; }

grep -q 'frame(s) merged (group memento)' "$WORK/live.err" \
    || { echo "FAIL: interval report missing or not served by memento frames" >&2
         sed 's/^/  hhh-live: /' "$WORK/live.err" >&2; exit 1; }
grep -q 'conditioned$' "$WORK/live.err" \
    || { echo "FAIL: interval report listed no HHH items" >&2
         sed 's/^/  hhh-live: /' "$WORK/live.err" >&2; exit 1; }

# The same frames through the offline collector, next to a v6 fleet
# member: each family merges into its own Memento group.
"$LIVE" --scenario=v4v6_mixed --seconds=30 --engine=memento_v6 --window=10 --step=1 \
    --out="$WORK/frames6.bin" \
    2> "$WORK/live6.err" || { echo "FAIL: memento_v6 replay exited nonzero" >&2
                              sed 's/^/  hhh-live: /' "$WORK/live6.err" >&2; exit 1; }
cat "$WORK/frames.bin" "$WORK/frames6.bin" | "$COLLECTOR" --stdin --phi=0.05 \
    > "$WORK/collector.out" 2>&1 || { echo "FAIL: hhh-collector refused memento frames" >&2
                                     sed 's/^/  hhh-collector: /' "$WORK/collector.out" >&2
                                     exit 1; }
for group in memento memento_v6; do
    grep -qF "merged network-wide HHH set [$group]" "$WORK/collector.out" \
        || { echo "FAIL: hhh-collector reported no $group group" >&2
             sed 's/^/  hhh-collector: /' "$WORK/collector.out" >&2; exit 1; }
done

# An interval entirely before the trace: covered by no retained frame —
# the query degrades to a pointed message, not a failure.
"$LIVE" --synthetic=3 --seconds=30 --engine=memento --window=10 --step=1 \
    --out=/dev/null --query-interval=100:200 \
    2> "$WORK/empty.err" || { echo "FAIL: empty-interval replay exited nonzero" >&2
                              sed 's/^/  hhh-live: /' "$WORK/empty.err" >&2; exit 1; }
grep -q 'no retained frame' "$WORK/empty.err" \
    || { echo "FAIL: empty interval did not report the no-frames message" >&2
         sed 's/^/  hhh-live: /' "$WORK/empty.err" >&2; exit 1; }

# Sliding detectors need a report cadence: without --step the tool must
# refuse with an error naming the flag, not silently run disjoint.
if "$LIVE" --synthetic=3 --seconds=5 --engine=memento --out=/dev/null \
    2> "$WORK/nostep.err"; then
    echo "FAIL: sliding engine without --step was accepted" >&2; exit 1
fi
grep -q 'step' "$WORK/nostep.err" \
    || { echo "FAIL: missing-step error does not mention --step" >&2
         sed 's/^/  hhh-live: /' "$WORK/nostep.err" >&2; exit 1; }

echo "PASS: hhh-live sliding replay answered interval queries from the frame ring"
