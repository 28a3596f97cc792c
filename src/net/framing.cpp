#include "net/framing.h"

#include <cstring>

namespace hpcarbon::net {

void LineFramer::feed(std::string_view bytes) {
  if (discarding_) {
    // Count (never store) until the newline that ends the oversized
    // line; everything after it is buffered normally.
    const char* nl =
        static_cast<const char*>(std::memchr(bytes.data(), '\n', bytes.size()));
    if (nl == nullptr) {
      discarded_ += bytes.size();
      return;
    }
    discarded_ += static_cast<std::size_t>(nl - bytes.data());
    bytes.remove_prefix(static_cast<std::size_t>(nl - bytes.data()));
    // The '\n' itself and the pending oversize report are handled by
    // next(); keep the newline so next() sees the line terminator.
  }
  // Compact before growing: consumed bytes at the front are dead weight,
  // and dropping them keeps the buffer bounded by max_line_ + one chunk.
  if (pos_ > 0) {
    buf_.erase(0, pos_);
    scanned_ -= pos_;
    pos_ = 0;
  }
  buf_.append(bytes.data(), bytes.size());
}

LineFramer::Item LineFramer::emit(std::size_t begin, std::size_t end) {
  Item item;
  // The limit covers the untrimmed line, as discard mode counts it.
  if (end - begin > max_line_) {
    item.kind = Item::Kind::kOversize;
    item.oversize_bytes = end - begin;
    return item;
  }
  // Trim trailing '\r', ' ', '\t' (CRLF clients, trailing whitespace).
  while (end > begin && (buf_[end - 1] == '\r' || buf_[end - 1] == ' ' ||
                         buf_[end - 1] == '\t')) {
    --end;
  }
  if (end == begin) return item;  // blank line: kNone, caller loops
  item.kind = Item::Kind::kLine;
  item.line = std::string_view(buf_).substr(begin, end - begin);
  return item;
}

LineFramer::Item LineFramer::next() {
  while (true) {
    if (discarding_) {
      // Waiting for the newline that ends an oversized line. feed()
      // buffers from that newline onward, so the buffer's first byte (if
      // any) is the terminator.
      if (pos_ >= buf_.size()) return {};
      pos_ += 1;  // consume the '\n'
      scanned_ = pos_;
      discarding_ = false;
      Item item;
      item.kind = Item::Kind::kOversize;
      item.oversize_bytes = discarded_;
      discarded_ = 0;
      return item;
    }
    const std::size_t nl = buf_.find('\n', scanned_);
    if (nl == std::string::npos) {
      scanned_ = buf_.size();
      // No terminator yet: if the partial line already exceeds the
      // limit, stop buffering and start counting.
      if (buf_.size() - pos_ > max_line_) {
        discarded_ = buf_.size() - pos_;
        buf_.clear();
        pos_ = scanned_ = 0;
        discarding_ = true;
      }
      return {};
    }
    const Item item = emit(pos_, nl);
    pos_ = nl + 1;
    scanned_ = pos_;
    if (item.kind != Item::Kind::kNone) return item;
    // Blank line: keep scanning.
  }
}

LineFramer::Item LineFramer::finish() {
  if (discarding_) {
    // Stream ended inside an oversized line: report what was counted.
    discarding_ = false;
    Item item;
    item.kind = Item::Kind::kOversize;
    item.oversize_bytes = discarded_;
    discarded_ = 0;
    return item;
  }
  if (pos_ >= buf_.size()) return {};
  const Item item = emit(pos_, buf_.size());
  pos_ = buf_.size();
  scanned_ = pos_;
  return item;
}

}  // namespace hpcarbon::net
