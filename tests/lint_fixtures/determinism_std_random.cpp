// Lint fixture (never compiled): <random>'s algorithms.
// Expected under src/: determinism/std-random x9 (the include, two engines,
// one of them ::std::-qualified, two distributions, generate_canonical, and
// the shuffle, sample and ranges::shuffle calls); none elsewhere.  A member
// shuffle and a name ending in _distribution outside std:: are clean.
#include <algorithm>
#include <random>
#include <vector>

std::mt19937_64 engine(42);

double draw(::std::mt19937& g) {
  std::normal_distribution<double> d(0.0, 1.0);
  std::uniform_int_distribution<int> pick(0, 3);
  return d(engine) + pick(g) + std::generate_canonical<double, 64>(engine);
}

void mix(std::vector<int>& v, std::vector<int>& out, Rng& rng) {
  std::shuffle(v.begin(), v.end(), engine);
  std::sample(v.begin(), v.end(), out.begin(), 2, engine);
  std::ranges::shuffle(v, engine);
  rng.shuffle(v);
  (void)period_distribution(v);
}
