// Incremental newline framing for every serve front-end.
//
// A LineFramer turns an arbitrary sequence of byte chunks (socket reads,
// pipe reads, batch file reads) into the request lines the serve engine
// answers: trailing '\r', ' ' and '\t' are stripped (CRLF clients,
// trailing whitespace) and lines that are empty after trimming are
// skipped.
//
// The framer enforces serve::kMaxRequestLineBytes *while buffering*: once
// an unterminated line grows past the limit the buffered prefix is
// dropped and the framer switches to discard mode, counting (not
// storing) bytes until the terminating newline, then reports the line as
// oversized with its true byte count. A hostile or broken client can
// therefore never make a connection buffer more than the limit. The
// limit and the reported count cover every byte before the newline,
// trailing whitespace included, whether the newline arrived with the
// line or after the framer began discarding, so the answer does not
// depend on how reads split a line, and every front-end (batch, pipe and
// socket all frame through this class) rejects with identical bytes
// (serve::oversize_line_error).
//
// Single-owner object: one framer per connection (or per input), driven
// from one thread. Views returned by next() point into the internal
// buffer and are valid until the next feed()/next()/finish() call.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "serve/limits.h"

namespace hpcarbon::net {

class LineFramer {
 public:
  explicit LineFramer(std::size_t max_line_bytes = serve::kMaxRequestLineBytes)
      : max_line_(max_line_bytes) {}

  struct Item {
    enum class Kind {
      kNone,      // no complete line buffered; feed more bytes
      kLine,      // `line` is a complete, trimmed, non-empty request line
      kOversize,  // a line exceeded the limit; `oversize_bytes` is its
                  // untrimmed length (excluding the newline)
    };
    Kind kind = Kind::kNone;
    std::string_view line;
    std::size_t oversize_bytes = 0;
  };

  /// Append one chunk of incoming bytes.
  void feed(std::string_view bytes);

  /// Next complete line (or oversize report) out of the buffered bytes;
  /// kNone when more input is needed. Call in a loop after each feed().
  Item next();

  /// End of stream: a trailing unterminated line (data after the last
  /// newline) is delivered as a final line, matching getline semantics on
  /// files without a trailing newline. Call next() afterwards returns
  /// kNone. Safe to call once, after the final feed().
  Item finish();

  /// Bytes currently buffered (bounded by max_line_bytes + one chunk).
  std::size_t buffered_bytes() const { return buf_.size() - pos_; }
  std::size_t max_line_bytes() const { return max_line_; }

 private:
  Item emit(std::size_t begin, std::size_t end);

  std::string buf_;
  std::size_t pos_ = 0;          // start of the first unconsumed byte
  std::size_t scanned_ = 0;      // newline search resumes here
  bool discarding_ = false;      // inside an oversized line
  std::size_t discarded_ = 0;    // bytes of the oversized line seen so far
  std::size_t max_line_;
};

}  // namespace hpcarbon::net
