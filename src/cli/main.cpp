// The `hpcarbon` binary; `hpcarbon help` lists its commands.
//
// All commands route through cli::dispatch (cli/dispatch.h), which lives
// in hpcarbon_cli_core so the exit-code contract is unit-tested; this file
// only maps uncaught hpcarbon::Error to exit 1.
#include <iostream>

#include "cli/dispatch.h"
#include "core/error.h"

int main(int argc, char** argv) {
  try {
    return hpcarbon::cli::dispatch(argc, argv, std::cout, std::cerr);
  } catch (const hpcarbon::Error& e) {
    std::cerr << "hpcarbon: " << e.what() << '\n';
    return 1;
  }
}
