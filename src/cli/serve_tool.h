// `hpcarbon batch` and `hpcarbon serve`: the query-service front-ends.
//
// Both speak line-delimited JSON (one request per line, one response per
// line — see README "Query API") over the same serve::Engine:
//
//   hpcarbon batch requests.jsonl      file (or '-': stdin) in, JSONL out
//   hpcarbon serve                     request/response loop on
//                                      stdin/stdout, flushed per line, so
//                                      tests, CI, and scripts drive it
//                                      through a pipe
//   hpcarbon serve --listen HOST:PORT  epoll network daemon (TCP and/or
//            [--unix PATH]             Unix-domain socket; src/net) with
//                                      pipelining, backpressure and
//                                      graceful SIGTERM drain
//
// Responses are bit-identical across all three front-ends (and across
// thread counts); `batch` additionally prints a one-line cache summary to
// stderr, and the `{"op":"stats"}` control request reports engine
// counters plus net_* transport counters in-band (zeros in pipe/batch
// mode, where there is no transport). All front-ends frame lines through
// net::LineFramer and share the serve::kMaxRequestLineBytes line limit:
// an oversized request line (trailing whitespace counts) is answered with
// an ok:false response reporting its byte count.
//
// Observability (README "Observability"): `{"op":"metrics"}` returns the
// full obs registry as JSON; `--metrics-unix PATH` exposes a Prometheus
// scrape socket (read with `hpcarbon metrics --unix PATH`); and
// `--stats-interval SECS` prints a one-line operational summary to
// stderr every interval.
#pragma once

#include <iosfwd>

namespace hpcarbon::cli {

/// `hpcarbon batch FILE [flags]` (argv excludes the subcommand itself);
/// --help goes to `out`.
int cmd_batch(int argc, char** argv, std::ostream& out, std::ostream& err);

/// `hpcarbon serve [flags]`: the pipe loop, or the socket daemon with
/// --listen/--unix.
int cmd_serve(int argc, char** argv, std::ostream& out, std::ostream& err);

}  // namespace hpcarbon::cli
