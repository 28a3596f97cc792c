// Power Usage Effectiveness model.
//
// The paper sets PUE to a constant across the systems it characterizes:
// facility energy is IT energy times one number per system. Seasonal
// cooling swings exist but are not modeled.
#pragma once

namespace hpcarbon::op {

class PueModel {
 public:
  /// Constant PUE (the paper's configuration). Modern leadership HPC
  /// facilities run at roughly 1.1-1.3; 1.2 is the library default.
  explicit PueModel(double base = 1.2);

  double base() const { return base_; }

 private:
  double base_;
};

}  // namespace hpcarbon::op
