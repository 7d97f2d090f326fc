#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>

namespace srpc {

namespace {
constexpr std::uint64_t kMs = 1'000'000ULL;
constexpr std::uint64_t kSec = 1'000'000'000ULL;
// Too few samples and one miss looks like a firestorm; require a modest
// floor before a burn rate can declare a breach.
constexpr std::uint32_t kMinSamplesForBreach = 8;
}  // namespace

std::vector<SloObjective> SloConfig::defaults() {
  // Bounds sized for the worst healthy case in the suite (sparc_ethernet,
  // 64 Ki-node trees): single-page roundtrips stay in the low tens of
  // virtual ms, full-tree write-backs in the low virtual seconds.
  return {
      {"FETCH", 1 * kSec, 0.99, 256, 2.0},
      {"DEREF", 1 * kSec, 0.99, 256, 2.0},
      {"ALLOC_BATCH", 1 * kSec, 0.99, 256, 2.0},
      {"WB_PREPARE", 2 * kSec, 0.99, 256, 2.0},
      {"WB_COMMIT", 2 * kSec, 0.99, 256, 2.0},
      {"INVALIDATE", 2 * kSec, 0.99, 256, 2.0},
      {"SESSION_COMMIT", 30 * kSec, 0.99, 128, 2.0},
  };
}

double SloEngine::Tracker::burn_rate() const {
  if (filled == 0) return 0.0;
  const double rate =
      static_cast<double>(window_violations) / static_cast<double>(filled);
  const double allowed = 1.0 - objective.target;
  if (allowed <= 0.0) return window_violations > 0 ? 1e9 : 0.0;
  return rate / allowed;
}

void SloEngine::configure(const SloConfig& config) {
  trackers_.clear();
  enabled_ = config.enabled;
  if (!enabled_) return;
  const std::vector<SloObjective> objectives =
      config.objectives.empty() ? SloConfig::defaults() : config.objectives;
  for (const SloObjective& o : objectives) {
    if (o.kind.empty() || o.window == 0) continue;
    Tracker t;
    t.objective = o;
    t.ring.assign(o.window, false);
    trackers_.emplace(o.kind, std::move(t));
  }
}

SloObservation SloEngine::observe(std::string_view kind,
                                  std::uint64_t latency_ns) {
  SloObservation out;
  if (!enabled_) return out;
  auto it = trackers_.find(kind);
  if (it == trackers_.end()) return out;
  Tracker& t = it->second;
  out.tracked = true;
  const bool miss = latency_ns > t.objective.threshold_ns;

  // Slide the window: retire the bit this sample overwrites.
  if (t.filled == t.ring.size()) {
    if (t.ring[t.head]) --t.window_violations;
  } else {
    ++t.filled;
  }
  t.ring[t.head] = miss;
  t.head = (t.head + 1) % static_cast<std::uint32_t>(t.ring.size());
  ++t.observed;
  if (miss) {
    ++t.violations;
    ++t.window_violations;
  }

  out.violated = miss;
  out.burn_rate = t.burn_rate();
  const bool breach = t.filled >= kMinSamplesForBreach &&
                      out.burn_rate >= t.objective.breach_burn;
  out.breach_edge = breach && !t.in_breach;
  t.in_breach = breach;
  return out;
}

std::uint64_t SloEngine::total_violations() const {
  std::uint64_t n = 0;
  for (const auto& [kind, t] : trackers_) n += t.violations;
  return n;
}

std::map<std::string, SloEngine::KindStats> SloEngine::stats() const {
  std::map<std::string, KindStats> out;
  for (const auto& [kind, t] : trackers_) {
    KindStats s;
    s.threshold_ns = t.objective.threshold_ns;
    s.target = t.objective.target;
    s.window = t.objective.window;
    s.observed = t.observed;
    s.violations = t.violations;
    s.window_observed = t.filled;
    s.window_violations = t.window_violations;
    s.burn_rate = t.burn_rate();
    const double budget =
        (1.0 - t.objective.target) * static_cast<double>(t.objective.window);
    s.budget_remaining =
        budget > 0.0
            ? std::max(0.0, 1.0 - static_cast<double>(t.window_violations) /
                                      budget)
            : (t.window_violations == 0 ? 1.0 : 0.0);
    s.in_breach = t.in_breach;
    out.emplace(kind, s);
  }
  return out;
}

std::string SloEngine::to_json() const {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const auto& [kind, s] : stats()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + kind + "\": {";
    out += "\"threshold_ns\": " + std::to_string(s.threshold_ns);
    std::snprintf(buf, sizeof(buf), ", \"target\": %.4f", s.target);
    out += buf;
    out += ", \"observed\": " + std::to_string(s.observed);
    out += ", \"violations\": " + std::to_string(s.violations);
    out += ", \"window_observed\": " + std::to_string(s.window_observed);
    out += ", \"window_violations\": " + std::to_string(s.window_violations);
    std::snprintf(buf, sizeof(buf), ", \"burn_rate\": %.3f", s.burn_rate);
    out += buf;
    std::snprintf(buf, sizeof(buf), ", \"budget_remaining\": %.3f",
                  s.budget_remaining);
    out += buf;
    out += std::string(", \"in_breach\": ") + (s.in_breach ? "true" : "false");
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace srpc
