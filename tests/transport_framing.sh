#!/usr/bin/env bash
# One framing rule for every front-end: `hpcarbon batch FILE`, the pipe
# (`hpcarbon serve < FILE`) and the TCP daemon answer the same file with
# identical bytes. The file holds two lines that exceed the 1 MiB request
# line limit only when their trailing whitespace counts, then one request.
#
# Usage: tests/transport_framing.sh path/to/hpcarbon
set -uo pipefail
hpcarbon="$1"
dir="$(mktemp -d)"
srv=
trap '[[ -n "$srv" ]] && kill "$srv" 2>/dev/null; rm -rf "$dir"' EXIT

fail() {
  echo "transport_framing: $*" >&2
  exit 1
}

# repeat <count> <char>: the character <count> times.
repeat() { head -c "$1" /dev/zero | tr '\0' "$2"; }

{
  repeat 1500000 x
  printf '   \r\n'
  repeat 1048566 x
  repeat 65556 ' '
  printf '\n'
  printf '%s\n' '{"op":"embodied","id":"after","params":{"part":"epyc-7763"}}'
} >"$dir/lines.jsonl"

"$hpcarbon" batch "$dir/lines.jsonl" >"$dir/batch.jsonl" 2>/dev/null ||
  fail "batch exited $?"
"$hpcarbon" serve <"$dir/lines.jsonl" >"$dir/pipe.jsonl" ||
  fail "serve (pipe) exited $?"

printf '%s\n' \
  '{"error":"request line exceeds 1048576 bytes (got 1500004)","ok":false}' \
  '{"error":"request line exceeds 1048576 bytes (got 1114122)","ok":false}' \
  >"$dir/want_oversize.jsonl"
head -n 2 "$dir/batch.jsonl" | diff - "$dir/want_oversize.jsonl" ||
  fail "batch did not answer the two long lines as oversized"
sed -n 3p "$dir/batch.jsonl" | grep -q '"id":"after","ok":true' ||
  fail "batch did not answer the request after them"
cmp "$dir/batch.jsonl" "$dir/pipe.jsonl" || fail "batch and pipe differ"

"$hpcarbon" serve --listen 127.0.0.1:0 --workers 1 2>"$dir/serve.log" &
srv=$!
port=
for _ in $(seq 100); do
  port="$(sed -n 's/.*listening on tcp [0-9.]*:\([0-9]*\).*/\1/p' \
    "$dir/serve.log")"
  [[ -n "$port" ]] && break
  sleep 0.1
done
[[ -n "$port" ]] || fail "socket daemon did not report its port"
exec 3<>"/dev/tcp/127.0.0.1/$port"
cat "$dir/lines.jsonl" >&3
timeout 60 head -n 3 <&3 >"$dir/socket.jsonl"
exec 3>&-
kill -TERM "$srv"
wait "$srv" || fail "socket daemon exited $?"
srv=
cmp "$dir/batch.jsonl" "$dir/socket.jsonl" || fail "batch and socket differ"
echo "transport_framing OK"
