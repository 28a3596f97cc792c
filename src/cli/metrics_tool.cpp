#include "cli/metrics_tool.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <string>

#include "core/error.h"
#include "core/options.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/engine.h"

namespace hpcarbon::cli {

namespace {

/// One scrape: connect, read to EOF, return the exposition bytes.
std::string scrape_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw Error("metrics: socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw Error("metrics: socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw Error("metrics: cannot connect to " + path + ": " + why);
  }
  std::string out;
  char chunk[65536];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      throw Error("metrics: read from " + path + " failed: " + why);
    }
    break;  // EOF: the server sends one exposition and closes
  }
  ::close(fd);
  return out;
}

}  // namespace

int cmd_metrics(int argc, char** argv, std::ostream& out, std::ostream& err) {
  std::string unix_path;
  bool local = false;
  options::Table flags("metrics", "(--unix PATH | --local)",
                       "print Prometheus text: a daemon's scrape socket, or "
                       "this process's own registry");
  flags
      .text("--unix", "PATH", &unix_path,
            "scrape the daemon listening on this socket")
      .flag("--local", &local, "print this process's own registry instead");
  if (!flags.parse(argc, argv, out)) return 0;
  if (local != unix_path.empty()) {  // neither or both
    err << "hpcarbon metrics: pass exactly one of --unix PATH (scrape a "
           "daemon) or --local (this process's registry)\n";
    return 2;
  }
  if (local) {
    // A fresh CLI process has an empty registry; constructing the serve
    // engine registers the full instrument catalog (all zeros), which is
    // exactly what a format smoke wants to see.
    serve::Engine engine;
    std::cout << obs::to_prometheus(engine.snapshot());
    return 0;
  }
  std::cout << scrape_unix(unix_path);
  return 0;
}

}  // namespace hpcarbon::cli
