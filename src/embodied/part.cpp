#include "embodied/part.h"

namespace hpcarbon::embodied {

const char* to_string(PartClass c) {
  switch (c) {
    case PartClass::kGpu: return "GPU";
    case PartClass::kCpu: return "CPU";
    case PartClass::kDram: return "DRAM";
    case PartClass::kSsd: return "SSD";
    case PartClass::kHdd: return "HDD";
  }
  return "?";
}

}  // namespace hpcarbon::embodied
