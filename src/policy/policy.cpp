#include "policy/policy.hpp"

#include <stdexcept>
#include <string>

namespace ecthub::policy {

std::unique_ptr<Policy::Workspace> Policy::make_workspace() const {
  return std::make_unique<Workspace>();
}

void Policy::decide_rows(const nn::Matrix&, std::size_t, std::size_t,
                         std::span<std::size_t>, Workspace&) const {
  throw std::logic_error("Policy::decide_rows: " + name() +
                         " is stateful (or lacks an override) — row-block batching "
                         "requires a stateless policy");
}

void Policy::check_rows(const nn::Matrix& obs, std::size_t row_begin, std::size_t row_end,
                        std::span<const std::size_t> actions) {
  if (row_begin > row_end || row_end > obs.rows()) {
    throw std::invalid_argument("Policy::decide_rows: bad row range [" +
                                std::to_string(row_begin) + ", " + std::to_string(row_end) +
                                ") for " + std::to_string(obs.rows()) + " rows");
  }
  if (actions.size() != obs.rows()) {
    throw std::invalid_argument("Policy::decide_rows: " + std::to_string(obs.rows()) +
                                " observation rows but " + std::to_string(actions.size()) +
                                " action slots");
  }
}

}  // namespace ecthub::policy
