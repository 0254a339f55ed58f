#include "common/fault_injector.h"

#include <chrono>
#include <cstdlib>
#include <thread>

namespace mb2 {

FaultInjector &FaultInjector::Instance() {
  static FaultInjector instance;
  return instance;
}

FaultInjector::FaultInjector() {
  const char *env = std::getenv("MB2_FAULTS");
  if (env != nullptr && env[0] != '\0') {
    Status s = ArmFromSpec(env);
    if (!s.ok()) {
      std::fprintf(stderr, "MB2_FAULTS ignored: %s\n", s.ToString().c_str());
    }
  }
}

void FaultInjector::Arm(const std::string &point, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  PointState &state = points_[point];
  if (!state.armed) armed_points_.fetch_add(1, std::memory_order_relaxed);
  state.spec = std::move(spec);
  state.armed = true;
  state.fires = 0;
  state.hits = 0;
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  points_.clear();
  armed_points_.store(0, std::memory_order_relaxed);
}

void FaultInjector::Seed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  rng_ = Rng(seed);
}

FaultCheck FaultInjector::Hit(const char *point) {
  FaultCheck check;
  if (!Armed()) return check;
  int64_t delay_us = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = points_.find(point);
    if (it == points_.end() || !it->second.armed) return check;
    PointState &state = it->second;
    state.hits++;
    if (state.hits <= state.spec.after_hits) return check;
    if (state.spec.max_fires >= 0 &&
        state.fires >= static_cast<uint64_t>(state.spec.max_fires)) {
      return check;
    }
    if (state.spec.probability < 1.0 &&
        rng_.NextDouble() >= state.spec.probability) {
      return check;
    }
    state.fires++;
    check.action = state.spec.action;
    check.torn_fraction = state.spec.torn_fraction;
    check.message = state.spec.message.c_str();
    if (check.action == FaultAction::kDelay) {
      // The stall happens outside the registry lock so concurrent hits on
      // other points (or other threads in the same point) are not serialized
      // behind an injected sleep.
      check.delayed = true;
      delay_us = state.spec.delay_us;
    } else {
      check.fire = true;
    }
  }
  if (delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
  return check;
}

uint64_t FaultInjector::HitCount(const std::string &point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::FireCount(const std::string &point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fires;
}

std::vector<std::string> FaultInjector::ArmedPoints() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto &[name, state] : points_) {
    if (state.armed) out.push_back(name);
  }
  return out;
}

Status FaultInjector::ArmFromSpec(const std::string &spec) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("fault spec entry needs 'point=...': " + entry);
    }
    const std::string point = entry.substr(0, eq);
    FaultSpec fs;
    fs.message = "armed via spec";

    size_t tpos = eq + 1;
    while (tpos <= entry.size()) {
      size_t tend = entry.find(',', tpos);
      if (tend == std::string::npos) tend = entry.size();
      const std::string token = entry.substr(tpos, tend - tpos);
      tpos = tend + 1;
      if (token.empty()) continue;
      try {
        if (token[0] == 'p') {
          fs.probability = std::stod(token.substr(1));
        } else if (token[0] == 'n') {
          fs.after_hits = std::stoull(token.substr(1));
        } else if (token[0] == 'x') {
          fs.max_fires = std::stoll(token.substr(1));
        } else if (token == "error") {
          fs.action = FaultAction::kError;
        } else if (token == "throw") {
          fs.action = FaultAction::kThrow;
        } else if (token.rfind("torn", 0) == 0) {
          fs.action = FaultAction::kTornWrite;
          if (token.size() > 4) fs.torn_fraction = std::stod(token.substr(4));
        } else if (token.rfind("delay", 0) == 0) {
          fs.action = FaultAction::kDelay;
          if (token.size() > 5) fs.delay_us = std::stoll(token.substr(5));
        } else {
          return Status::InvalidArgument("unknown fault spec token: " + token);
        }
      } catch (const std::exception &) {
        return Status::InvalidArgument("malformed fault spec token: " + token);
      }
      if (tend == entry.size()) break;
    }
    if (fs.probability < 0.0 || fs.probability > 1.0 ||
        fs.torn_fraction < 0.0 || fs.torn_fraction > 1.0) {
      return Status::InvalidArgument("fault spec fractions must be in [0,1]: " + entry);
    }
    if (fs.delay_us < 0) {
      return Status::InvalidArgument("fault spec delay must be >= 0: " + entry);
    }
    Arm(point, std::move(fs));
  }
  return Status::Ok();
}

}  // namespace mb2
