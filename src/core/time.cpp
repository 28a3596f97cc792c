#include "core/time.h"

namespace hpcarbon {

int month_start_hour(int month) {
  HPC_REQUIRE(month >= 0 && month < 12, "month out of range");
  int days = 0;
  for (int m = 0; m < month; ++m) days += kDaysInMonth[static_cast<size_t>(m)];
  return days * kHoursPerDay;
}

}  // namespace hpcarbon
