// Fixture for the ear_lint self-test: the nondet-iteration dataflow
// rule. Never compiled — only scanned.
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

std::unordered_map<std::string, double> totals_by_node;
std::unordered_set<int> active_ranks;
std::map<std::string, double> ordered_totals;

double fixture_nondet_reduction() {
  double sum = 0.0;
  for (const auto& [name, value] : totals_by_node) {  // LINT-EXPECT: nondet-iteration
    sum += value;
  }
  // Multi-line shape: the accumulator sits far below the loop header.
  std::vector<int> order;
  for (int rank :  // LINT-EXPECT: nondet-iteration
       active_ranks) {
    if (rank > 0) {
      order.push_back(rank);
    }
  }
  // Inline temporary, single-statement body.
  double v = 0.0;
  for (int x : std::unordered_set<int>{1, 2, 3})  // LINT-EXPECT: nondet-iteration
    v *= x;
  return sum + v;
}

double fixture_nondet_clean() {
  // Ordered container: iteration order is defined; accumulation is fine.
  double sum = 0.0;
  for (const auto& [name, value] : ordered_totals) {
    sum += value;
  }
  // Unordered container, but the body only reads — no order-sensitive
  // sink, so no finding.
  std::size_t n = 0;
  for (const auto& [name, value] : totals_by_node) {
    if (value > 0.0) n = name.size();
  }
  // Sorted copy first: the sanctioned pattern.
  std::vector<int> sorted_ranks(active_ranks.begin(), active_ranks.end());
  for (int rank : sorted_ranks) {
    sum += rank;
  }
  return sum + static_cast<double>(n);
}
