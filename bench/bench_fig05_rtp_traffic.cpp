// Fig. 5 — real-time electricity price and network traffic over 96 hours.
//
// The paper's measurement shows BS load positively correlated with RTP, with
// both peaking in the evening.  We regenerate the two series and report the
// correlation that motivates battery arbitrage.
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "pricing/rtp.hpp"
#include "traffic/generator.hpp"

#include <iostream>

// Traffic volume at full load, GB per slot: the top of Fig. 5's "Load" axis.
constexpr double kPeakVolumeGb = 160.0;

static int run(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  const std::uint64_t seed = flags.get_size("seed", 55);
  const std::string csv_dir = flags.get_string("csv", "");
  flags.check_unknown();

  std::cout << "=== Fig. 5: real-time pricing and network traffic (4 days) ===\n\n";

  const TimeGrid grid(4, 24);
  traffic::TrafficConfig tcfg;
  tcfg.area = traffic::AreaType::kResidential;
  traffic::TrafficGenerator tgen(tcfg, Rng(seed));
  traffic::TrafficTrace trace;
  tgen.generate_into(grid, trace);

  pricing::RtpConfig pcfg;
  pricing::RtpGenerator pgen(pcfg, Rng(seed + 1));
  std::vector<double> rtp;
  pgen.generate_into(grid, trace.load_rate, rtp);

  std::vector<double> volume_gb(grid.size());
  for (std::size_t t = 0; t < grid.size(); ++t) {
    volume_gb[t] = trace.load_rate[t] * kPeakVolumeGb;
  }

  TextTable table({"hour", "RTP ($/MWh)", "traffic (GB)"});
  for (std::size_t t = 0; t < grid.size(); t += 2) {
    table.begin_row()
        .add_int(static_cast<long long>(t))
        .add_double(rtp[t], 1)
        .add_double(volume_gb[t], 1);
  }
  table.print(std::cout);

  const double corr = stats::pearson(rtp, volume_gb);
  std::cout << "\nPearson(RTP, traffic) = " << corr << "\n";
  std::cout << "RTP range: [" << stats::min(rtp) << ", " << stats::max(rtp)
            << "] $/MWh; traffic range: [" << stats::min(volume_gb) << ", "
            << stats::max(volume_gb) << "] GB\n";
  std::cout << "Paper shape: load and price positively correlated, both peaking at\n"
               "night/evening (paper reports RTP ~50-130 $/MWh, traffic 20-160 GB).\n";

  if (!csv_dir.empty()) {
    std::vector<double> hours(grid.size());
    for (std::size_t t = 0; t < grid.size(); ++t) hours[t] = static_cast<double>(t);
    write_csv(csv_dir + "/fig05_rtp_traffic.csv", {"hour", "rtp", "traffic_gb"},
              {hours, rtp, volume_gb});
  }
  return 0;
}

int main(int argc, char** argv) { return ecthub::cli_main(argc, argv, run); }
