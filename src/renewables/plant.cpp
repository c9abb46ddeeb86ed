#include "renewables/plant.hpp"

namespace ecthub::renewables {

PlantConfig PlantConfig::urban() {
  PlantConfig cfg;
  PvConfig pv;
  pv.area_m2 = 25.0;  // rooftop constraint
  pv.rated_power_w = 5000.0;
  cfg.pv = pv;
  return cfg;
}

PlantConfig PlantConfig::rural() {
  PlantConfig cfg;
  PvConfig pv;
  pv.area_m2 = 60.0;
  pv.rated_power_w = 12000.0;
  cfg.pv = pv;
  cfg.wt = WindTurbineConfig{};
  return cfg;
}

PlantConfig PlantConfig::none() { return PlantConfig{}; }

void PlantConfig::validate() const {
  if (pv) pv->validate();
  if (wt) wt->validate();
}

RenewablePlant::RenewablePlant(PlantConfig cfg) : cfg_(cfg) { cfg_.validate(); }

void RenewablePlant::generate_into(const weather::WeatherSeries& wx,
                                   GenerationSeries& out) const {
  out.pv_w.assign(wx.size(), 0.0);
  out.wt_w.assign(wx.size(), 0.0);
  if (cfg_.pv) {
    const PvArray pv(*cfg_.pv);
    for (std::size_t t = 0; t < wx.size(); ++t) {
      out.pv_w[t] = pv.power_w(wx.ghi_wm2[t], wx.temperature_c[t]);
    }
  }
  if (cfg_.wt) {
    const WindTurbine wt(*cfg_.wt);
    for (std::size_t t = 0; t < wx.size(); ++t) {
      out.wt_w[t] = wt.power_w(wx.wind_speed_ms[t]);
    }
  }
}

}  // namespace ecthub::renewables
