#include "src/htm/stripe_table.h"

namespace gocc::htm {

namespace internal {

PaddedStripe g_stripes[kNumStripes];

}  // namespace internal

}  // namespace gocc::htm
