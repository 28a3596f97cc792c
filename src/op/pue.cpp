#include "op/pue.h"

#include "core/error.h"

namespace hpcarbon::op {

PueModel::PueModel(double base) : base_(base) {
  HPC_REQUIRE(base >= 1.0, "PUE cannot be below 1.0");
}

}  // namespace hpcarbon::op
