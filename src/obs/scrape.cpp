#include "obs/scrape.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "core/error.h"
#include "net/listener.h"
#include "obs/export.h"

namespace hpcarbon::obs {

ScrapeServer::ScrapeServer(std::string unix_path, MetricsRegistry* registry,
                           std::function<void()> pre_scrape)
    : path_(std::move(unix_path)),
      registry_(registry != nullptr ? registry : &MetricsRegistry::global()),
      pre_scrape_(std::move(pre_scrape)) {}

ScrapeServer::~ScrapeServer() { stop(); }

void ScrapeServer::start() {
  HPC_REQUIRE(listen_fd_ == -1, "ScrapeServer already started");
  // The data plane's bind: it replaces a stale socket and refuses to
  // replace anything else. The accept loop below blocks.
  const int fd = net::listen_unix(path_, 16);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  listen_fd_ = fd;
  thread_ = std::thread([this, fd] { accept_loop(fd); });
}

void ScrapeServer::stop() {
  if (listen_fd_ < 0) return;  // never bound: the path is not ours
  // shutdown() fails every accept() on Linux, a blocked one included, so
  // the thread exits before the fd is closed and its number reused.
  ::shutdown(listen_fd_, SHUT_RDWR);
  thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(path_.c_str());
}

void ScrapeServer::accept_loop(int listen_fd) {
  for (;;) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop(): drain and exit
    }
    if (pre_scrape_) pre_scrape_();
    const std::string body = to_prometheus(registry_->snapshot());
    std::size_t off = 0;
    while (off < body.size()) {
      const ssize_t n =
          ::send(client, body.data() + off, body.size() - off, MSG_NOSIGNAL);
      if (n <= 0) break;  // scraper went away mid-write
      off += static_cast<std::size_t>(n);
    }
    ::shutdown(client, SHUT_WR);
    ::close(client);
  }
}

}  // namespace hpcarbon::obs
