#include "runtime/fault.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace specomp::runtime {

namespace {

// Decision salts keep the per-message hash streams for drop / dup / reorder
// decorrelated; drop attempts additionally fold in the attempt index.
constexpr std::uint64_t kDropSalt = 0xd201;
constexpr std::uint64_t kDupSalt = 0xd202;
constexpr std::uint64_t kReorderSalt = 0xd203;
constexpr std::uint64_t kSlowSalt = 0xd210;

constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  support::SplitMix64 g(h ^ (v + 0x9e3779b97f4a7c15ULL));
  return g.next();
}

constexpr double to_unit(std::uint64_t h) noexcept {
  // Top 53 bits -> [0, 1), the same mapping Xoshiro256::uniform uses.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

void FaultStats::merge(const FaultStats& other) noexcept {
  injected_drops += other.injected_drops;
  retransmits += other.retransmits;
  messages_lost += other.messages_lost;
  injected_duplicates += other.injected_duplicates;
  duplicates_suppressed += other.duplicates_suppressed;
  injected_reorders += other.injected_reorders;
  slowdown_charges += other.slowdown_charges;
  stalls += other.stalls;
  crashed_ranks += other.crashed_ranks;
}

bool FaultStats::any() const noexcept {
  return injected_drops != 0 || messages_lost != 0 ||
         injected_duplicates != 0 || injected_reorders != 0 ||
         slowdown_charges != 0 || stalls != 0 || crashed_ranks != 0;
}

FaultPlan::FaultPlan(FaultPlanConfig config) : config_(std::move(config)) {
  SPEC_EXPECTS(config_.retransmit_timeout_seconds >= 0.0);
  SPEC_EXPECTS(config_.max_retransmits >= 0 && config_.max_retransmits <= 30);
  SPEC_EXPECTS(config_.reorder_hold_seconds >= 0.0);
  SPEC_EXPECTS(config_.duplicate_offset_seconds >= 0.0);
  for (const auto& rule : config_.links) {
    SPEC_EXPECTS(rule.drop >= 0.0 && rule.drop <= 1.0);
    SPEC_EXPECTS(rule.duplicate >= 0.0 && rule.duplicate <= 1.0);
    SPEC_EXPECTS(rule.reorder >= 0.0 && rule.reorder <= 1.0);
    any_duplicate_ = any_duplicate_ || rule.duplicate > 0.0;
    any_reorder_ = any_reorder_ || rule.reorder > 0.0;
  }
  stalls_by_time_ = config_.stalls;
  std::sort(stalls_by_time_.begin(), stalls_by_time_.end(),
            [](const StallRule& a, const StallRule& b) {
              if (a.at_seconds != b.at_seconds)
                return a.at_seconds < b.at_seconds;
              return a.rank < b.rank;
            });
}

double FaultPlan::unit_hash(std::uint64_t salt, std::uint64_t a,
                            std::uint64_t b, std::uint64_t c,
                            std::uint64_t d) const noexcept {
  std::uint64_t h = config_.seed;
  h = mix(h, salt);
  h = mix(h, a);
  h = mix(h, b);
  h = mix(h, c);
  h = mix(h, d);
  return to_unit(h);
}

FaultPlan::SendOutcome FaultPlan::on_send(net::Rank src, net::Rank dst,
                                          int tag,
                                          std::uint64_t seq) const noexcept {
  SendOutcome out;
  // Field-wise first-match merge over the rule list (see LinkFaultRule doc).
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  for (const auto& rule : config_.links) {
    if (rule.src != -1 && rule.src != src) continue;
    if (rule.dst != -1 && rule.dst != dst) continue;
    if (drop == 0.0) drop = rule.drop;
    if (duplicate == 0.0) duplicate = rule.duplicate;
    if (reorder == 0.0) reorder = rule.reorder;
  }
  if (drop == 0.0 && duplicate == 0.0 && reorder == 0.0) return out;

  const auto us = static_cast<std::uint64_t>(static_cast<std::uint32_t>(src));
  const auto ud = static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
  const auto ut = static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));

  if (drop > 0.0) {
    if (config_.recovery) {
      // Bounded ARQ: each consecutive drop costs one backoff interval,
      // doubling every attempt; the attempt after the last tolerated drop
      // always delivers.  The whole schedule is resolved here, at send, so
      // the channel sees a single (delayed) delivery.
      for (int attempt = 0; attempt < config_.max_retransmits; ++attempt) {
        if (unit_hash(kDropSalt + static_cast<std::uint64_t>(attempt), us, ud,
                      ut, seq) >= drop) {
          break;
        }
        ++out.drops;
        ++out.retransmits;
        out.extra_delay_seconds += config_.retransmit_timeout_seconds *
                                   static_cast<double>(1u << attempt);
      }
    } else if (unit_hash(kDropSalt, us, ud, ut, seq) < drop) {
      ++out.drops;
      out.lost = true;
      return out;  // nothing else can happen to a lost message
    }
  }
  if (duplicate > 0.0 && unit_hash(kDupSalt, us, ud, ut, seq) < duplicate)
    out.duplicated = true;
  if (reorder > 0.0 && unit_hash(kReorderSalt, us, ud, ut, seq) < reorder) {
    out.reordered = true;
    out.extra_delay_seconds += config_.reorder_hold_seconds;
  }
  return out;
}

double FaultPlan::compute_multiplier(net::Rank rank, double now_seconds,
                                     std::uint64_t draw) const noexcept {
  double multiplier = 1.0;
  for (std::size_t i = 0; i < config_.slowdowns.size(); ++i) {
    const SlowdownRule& rule = config_.slowdowns[i];
    if (rule.rank != -1 && rule.rank != rank) continue;
    if (now_seconds < rule.begin_seconds || now_seconds >= rule.end_seconds)
      continue;
    if (rule.probability < 1.0 &&
        unit_hash(kSlowSalt + i,
                  static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)),
                  draw, 0, 0) >= rule.probability) {
      continue;
    }
    multiplier *= rule.factor;
  }
  return multiplier;
}

double FaultPlan::take_due_stalls(net::Rank rank, double now_seconds,
                                  std::size_t& cursor,
                                  std::uint64_t* fired) const noexcept {
  double total = 0.0;
  while (cursor < stalls_by_time_.size() &&
         stalls_by_time_[cursor].at_seconds <= now_seconds) {
    const StallRule& rule = stalls_by_time_[cursor++];
    if (rule.rank == -1 || rule.rank == rank) {
      total += rule.duration_seconds;
      if (fired != nullptr) ++*fired;
    }
  }
  return total;
}

std::optional<double> FaultPlan::crash_time(net::Rank rank) const noexcept {
  std::optional<double> earliest;
  for (const auto& rule : config_.crashes) {
    if (rule.rank != rank) continue;
    if (!earliest || rule.at_seconds < *earliest) earliest = rule.at_seconds;
  }
  return earliest;
}

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

bool parse_rank(const std::string& text, net::Rank& out) {
  if (text == "*") {
    out = -1;
    return true;
  }
  double value = 0.0;
  if (!parse_double(text, value) || value < 0.0 ||
      value != static_cast<double>(static_cast<net::Rank>(value))) {
    return false;
  }
  out = static_cast<net::Rank>(value);
  return true;
}

/// Parses the optional `@S->D` link suffix; `body` is the clause after the
/// kind prefix (e.g. "0.05@1->2").  On success `prob_text` holds the part
/// before '@'.
bool parse_link_suffix(const std::string& body, std::string& prob_text,
                       net::Rank& src, net::Rank& dst, std::string& error) {
  const std::size_t at = body.find('@');
  src = -1;
  dst = -1;
  if (at == std::string::npos) {
    prob_text = body;
    return true;
  }
  prob_text = body.substr(0, at);
  const std::string link = body.substr(at + 1);
  const std::size_t arrow = link.find("->");
  if (arrow == std::string::npos) {
    error = "link suffix must be @SRC->DST (got '@" + link + "')";
    return false;
  }
  if (!parse_rank(link.substr(0, arrow), src) ||
      !parse_rank(link.substr(arrow + 2), dst)) {
    error = "bad rank in link suffix '@" + link + "' (want a number or *)";
    return false;
  }
  return true;
}

bool parse_probability(const std::string& text, double& out,
                       std::string& error) {
  if (!parse_double(text, out) || out < 0.0 || out > 1.0) {
    error = "probability must be in [0, 1] (got '" + text + "')";
    return false;
  }
  return true;
}

}  // namespace

bool parse_fault_plan(const std::string& spec, FaultPlanConfig& config,
                      std::string& error) {
  error.clear();
  for (const std::string& clause : split(spec, ',')) {
    if (clause.empty()) {
      error = "empty clause (stray comma) in fault plan '" + spec + "'";
      return false;
    }
    if (clause == "norecovery") {
      config.recovery = false;
      continue;
    }
    const std::size_t colon = clause.find(':');
    if (colon == std::string::npos) {
      error = "clause '" + clause + "' has no ':' (see runtime/fault.hpp)";
      return false;
    }
    const std::string kind = clause.substr(0, colon);
    const std::string body = clause.substr(colon + 1);

    if (kind == "drop" || kind == "dup" || kind == "reorder") {
      std::string prob_text;
      LinkFaultRule rule;
      if (!parse_link_suffix(body, prob_text, rule.src, rule.dst, error))
        return false;
      double prob = 0.0;
      if (!parse_probability(prob_text, prob, error)) return false;
      if (kind == "drop") rule.drop = prob;
      if (kind == "dup") rule.duplicate = prob;
      if (kind == "reorder") rule.reorder = prob;
      config.links.push_back(rule);
    } else if (kind == "slow") {
      // slow:RxF[@T0..T1][~P]
      SlowdownRule rule;
      std::string rest = body;
      if (const std::size_t tilde = rest.find('~');
          tilde != std::string::npos) {
        if (!parse_probability(rest.substr(tilde + 1), rule.probability,
                               error)) {
          return false;
        }
        rest = rest.substr(0, tilde);
      }
      if (const std::size_t at = rest.find('@'); at != std::string::npos) {
        const std::string window = rest.substr(at + 1);
        const std::size_t dots = window.find("..");
        if (dots == std::string::npos ||
            !parse_double(window.substr(0, dots), rule.begin_seconds) ||
            !parse_double(window.substr(dots + 2), rule.end_seconds) ||
            rule.end_seconds < rule.begin_seconds) {
          error = "slow window must be @T0..T1 with T1 >= T0 (got '" + body +
                  "')";
          return false;
        }
        rest = rest.substr(0, at);
      }
      const std::size_t x = rest.find('x');
      if (x == std::string::npos || !parse_rank(rest.substr(0, x), rule.rank) ||
          !parse_double(rest.substr(x + 1), rule.factor) || rule.factor <= 0.0) {
        error = "slow clause must be slow:RANKxFACTOR[@T0..T1][~P] (got '" +
                clause + "')";
        return false;
      }
      config.slowdowns.push_back(rule);
    } else if (kind == "stall") {
      // stall:R@T+D
      StallRule rule;
      const std::size_t at = body.find('@');
      const std::size_t plus =
          at == std::string::npos ? std::string::npos : body.find('+', at);
      if (at == std::string::npos || plus == std::string::npos ||
          !parse_rank(body.substr(0, at), rule.rank) || rule.rank < 0 ||
          !parse_double(body.substr(at + 1, plus - at - 1), rule.at_seconds) ||
          !parse_double(body.substr(plus + 1), rule.duration_seconds) ||
          rule.at_seconds < 0.0 || rule.duration_seconds < 0.0) {
        error = "stall clause must be stall:RANK@T+DURATION (got '" + clause +
                "')";
        return false;
      }
      config.stalls.push_back(rule);
    } else if (kind == "crash") {
      // crash:R@T
      CrashRule rule;
      const std::size_t at = body.find('@');
      if (at == std::string::npos ||
          !parse_rank(body.substr(0, at), rule.rank) || rule.rank < 0 ||
          !parse_double(body.substr(at + 1), rule.at_seconds) ||
          rule.at_seconds < 0.0) {
        error = "crash clause must be crash:RANK@T (got '" + clause + "')";
        return false;
      }
      config.crashes.push_back(rule);
    } else if (kind == "rto") {
      if (!parse_double(body, config.retransmit_timeout_seconds) ||
          config.retransmit_timeout_seconds < 0.0) {
        error = "rto wants a nonnegative number of seconds (got '" + body + "')";
        return false;
      }
    } else if (kind == "retries") {
      double value = 0.0;
      if (!parse_double(body, value) || value < 1.0 || value > 30.0 ||
          value != static_cast<double>(static_cast<int>(value))) {
        error = "retries wants an integer in [1, 30] (got '" + body + "')";
        return false;
      }
      config.max_retransmits = static_cast<int>(value);
    } else if (kind == "reorder-hold") {
      if (!parse_double(body, config.reorder_hold_seconds) ||
          config.reorder_hold_seconds < 0.0) {
        error = "reorder-hold wants nonnegative seconds (got '" + body + "')";
        return false;
      }
    } else if (kind == "dup-offset") {
      if (!parse_double(body, config.duplicate_offset_seconds) ||
          config.duplicate_offset_seconds < 0.0) {
        error = "dup-offset wants nonnegative seconds (got '" + body + "')";
        return false;
      }
    } else {
      error = "unknown fault clause kind '" + kind +
              "' (want drop/dup/reorder/slow/stall/crash/rto/retries/"
              "reorder-hold/dup-offset/norecovery)";
      return false;
    }
  }
  return true;
}

}  // namespace specomp::runtime
