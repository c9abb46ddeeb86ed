#include "power/balance.hpp"

#include <algorithm>

namespace ecthub::power {

double PowerFlow::grid_kw() const {
  return std::max(0.0, bs_kw + cs_kw + bp_kw - wt_kw - pv_kw);
}

}  // namespace ecthub::power
