#!/bin/sh
# Exercises sparql_endpoint's --store restart contract end to end:
#   1. a missing snapshot trains from scratch and writes one;
#   2. a rerun serves straight out of the snapshot and skips training;
#   3. both runs rank the demo traffic identically (the store-backed scan
#      is bit-identical to the in-RAM table);
#   4. a corrupted shard file must produce a clean stderr diagnostic and a
#      nonzero exit (never silently retrain over the snapshot).
# Usage: sparql_endpoint_store_test.sh <path-to-sparql_endpoint>
set -eu

BIN="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BIN" --store "$TMP/snap" < /dev/null > "$TMP/first.txt" 2>&1
grep -q "training from scratch" "$TMP/first.txt"
grep -q "wrote store snapshot to" "$TMP/first.txt"
ls "$TMP/snap"/MANIFEST.halksnap "$TMP/snap"/entities-*.halkstore > /dev/null

"$BIN" --store "$TMP/snap" < /dev/null > "$TMP/second.txt" 2>&1
grep -q "serving out of store snapshot" "$TMP/second.txt"

# The served rankings (every "top-3..." line) must match between the
# in-RAM run that wrote the snapshot and the store-backed rerun.
grep '^top-3' "$TMP/first.txt" > "$TMP/first_topk.txt"
grep '^top-3' "$TMP/second.txt" > "$TMP/second_topk.txt"
cmp -s "$TMP/first_topk.txt" "$TMP/second_topk.txt" || {
  echo "FAIL: store-backed rankings differ from in-RAM rankings" >&2
  diff "$TMP/first_topk.txt" "$TMP/second_topk.txt" >&2 || true
  exit 1
}

# Flip the last byte of a shard file (inside the last row group's zero
# padding, which that group's checksum covers): the open-time verification
# must catch it and the endpoint must refuse to serve or retrain.
SHARD="$(ls "$TMP/snap"/entities-*.halkstore | head -n 1)"
printf '\377' | dd of="$SHARD" bs=1 seek=$(( $(wc -c < "$SHARD") - 1 )) \
  conv=notrunc 2> /dev/null
if "$BIN" --store "$TMP/snap" < /dev/null \
    > "$TMP/out.txt" 2> "$TMP/err.txt"; then
  echo "FAIL: expected nonzero exit for a corrupted shard file" >&2
  exit 1
fi
grep -q "cannot open snapshot" "$TMP/err.txt" || {
  echo "FAIL: no diagnostic on stderr for a corrupted shard file" >&2
  cat "$TMP/err.txt" >&2
  exit 1
}

echo PASS
