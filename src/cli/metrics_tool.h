// `hpcarbon metrics`: scrape-side companion to `hpcarbon serve
// --metrics-unix PATH`.
//
//   hpcarbon metrics --unix PATH   connect to a daemon's metrics socket,
//                                  print its Prometheus exposition
//   hpcarbon metrics --local       print this process's own (global)
//                                  registry — format smoke without a
//                                  daemon
//
// The socket protocol is read-to-EOF (obs/scrape.h): no request bytes,
// no framing, so any netcat-style client works too. Exit 0 on a
// successful scrape, nonzero on connect/read failure.
#pragma once

#include <iosfwd>

namespace hpcarbon::cli {

/// `hpcarbon metrics (--unix PATH | --local)` (argv excludes the
/// subcommand itself); --help goes to `out`.
int cmd_metrics(int argc, char** argv, std::ostream& out, std::ostream& err);

}  // namespace hpcarbon::cli
