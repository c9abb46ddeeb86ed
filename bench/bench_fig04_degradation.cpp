// Fig. 4 — voltage of two batteries and a battery group over ~350 days.
//
// Reproduces the slow self-degradation the paper uses to argue that idle
// backup batteries waste value: per-cell float voltage declines over a year
// even without cycling, and cycling accelerates the decline.
#include "battery/degradation.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

#include <iostream>

int main(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  const std::size_t days = flags.get_size("days", 350);
  const std::string csv_dir = flags.get_string("csv", "");
  flags.check_unknown();

  std::cout << "=== Fig. 4: voltage of two batteries and a battery group ===\n\n";

  battery::DegradationConfig cell1;                 // healthy cell
  battery::DegradationConfig cell2 = cell1;         // weaker cell: ages faster
  cell2.calendar_fade_per_day = 3.2e-4;
  battery::DegradationConfig group = cell1;         // 24-cell series group

  const auto v1 = battery::DegradationModel::voltage_trajectory(cell1, days);
  const auto v2 = battery::DegradationModel::voltage_trajectory(cell2, days);
  const auto vg_cell = battery::DegradationModel::voltage_trajectory(group, days, 1.0);

  TextTable table({"day", "battery1 (V)", "battery2 (V)", "group (V)"});
  for (std::size_t d = 0; d < days; d += 25) {
    table.begin_row()
        .add_int(static_cast<long long>(d))
        .add_double(v1[d], 3)
        .add_double(v2[d], 3)
        .add_double(vg_cell[d] * static_cast<double>(group.cells_in_group), 2);
  }
  table.print(std::cout);

  std::cout << "\nVoltage drop over " << days << " days: battery1 "
            << (v1.front() - v1.back()) * 1000.0 << " mV, battery2 "
            << (v2.front() - v2.back()) * 1000.0 << " mV (cycled group cell "
            << (vg_cell.front() - vg_cell.back()) * 1000.0 << " mV)\n";
  std::cout << "Paper shape: gradual monotone voltage decline (~2.30 -> ~2.10 V class\n"
               "cells over a year), reflecting the slow self-degradation process.\n";

  if (!csv_dir.empty()) {
    std::vector<double> day_axis(days), g(days);
    for (std::size_t d = 0; d < days; ++d) {
      day_axis[d] = static_cast<double>(d);
      g[d] = vg_cell[d] * static_cast<double>(group.cells_in_group);
    }
    write_csv(csv_dir + "/fig04_degradation.csv", {"day", "battery1_v", "battery2_v", "group_v"},
              {day_axis, v1, v2, g});
  }
  return 0;
}
