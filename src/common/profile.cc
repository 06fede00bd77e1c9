#include "common/profile.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/fault_inject.hh"

namespace avr {
namespace prof {
namespace {

constexpr const char* kPhaseNames[kNumPhases] = {
    "setup", "functional", "timing", "compress", "cache_io", "bdi"};
constexpr const char* kCounterNames[kNumCounters] = {
    "points_simulated", "cache_hits",       "cache_appends",
    "claims_won",       "claims_reclaimed", "claims_lost"};

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

/// {"phases":{"setup":{"ns":..,"calls":..},...},"counters":{...}}
void append_totals(std::string& out, const Totals& t) {
  out += "{\"phases\":{";
  for (size_t i = 0; i < kNumPhases; ++i) {
    if (i) out += ',';
    out += '"';
    out += kPhaseNames[i];
    out += "\":{\"ns\":";
    out += std::to_string(t.ns[i]);
    out += ",\"calls\":";
    out += std::to_string(t.calls[i]);
    out += '}';
  }
  out += "},\"counters\":{";
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (i) out += ',';
    out += '"';
    out += kCounterNames[i];
    out += "\":";
    out += std::to_string(t.counts[i]);
  }
  out += "}}";
}

}  // namespace

const char* phase_name(Phase p) {
  return kPhaseNames[static_cast<size_t>(p)];
}

const char* counter_name(Counter c) {
  return kCounterNames[static_cast<size_t>(c)];
}

bool write_profile_json(const std::string& path, const Report& report) {
  std::string out = "{\"schema\":\"";
  out += kProfileSchema;
  out += "\",\"owner\":\"";
  append_json_escaped(out, report.owner);
  out += "\",\"mode\":\"";
  append_json_escaped(out, report.mode);
  out += "\",\"simd\":\"";
  append_json_escaped(out, report.simd);
  out += "\",\"wall_seconds\":";
  append_double(out, report.wall_seconds);
  out += ",\"aggregate\":";
  append_totals(out, report.aggregate);
  out += ",\"points\":[";
  for (size_t i = 0; i < report.points.size(); ++i) {
    const PointProfile& p = report.points[i];
    if (i) out += ',';
    out += "{\"workload\":\"";
    append_json_escaped(out, p.workload);
    out += "\",\"design\":\"";
    append_json_escaped(out, p.design);
    out += "\",\"t1\":";
    out += std::to_string(p.t1);
    out += ",\"wall_seconds\":";
    append_double(out, p.wall_seconds);
    out += ",\"totals\":";
    append_totals(out, p.totals);
    out += '}';
  }
  out += "]}\n";

  // tmp + rename: a reader (or artifact upload) never sees a torn sidecar.
  // The tmp name carries the owner (pid fallback), so concurrent writers
  // aimed at one final path — two workers misconfigured onto the same
  // AVR_PROFILE_OUT — can never tear each other's tmp file; last rename
  // wins whole. Sidecar failure is never fatal: every caller warns and
  // moves on (the sweep's results do not live here).
  const std::string uniq = report.owner.empty()
                               ? std::to_string(static_cast<long>(::getpid()))
                               : report.owner;
  const std::string tmp = path + "." + uniq + ".tmp";
  const fault::Kind wf = fault::fire(fault::Site::kSidecarWrite);
  if (wf == fault::Kind::kKill) fault::kill_now(fault::Site::kSidecarWrite);
  std::FILE* f =
      wf == fault::Kind::kNone ? std::fopen(tmp.c_str(), "w") : nullptr;
  if (!f) return false;
  const bool written = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  const fault::Kind rf = fault::fire(fault::Site::kSidecarRename);
  if (rf == fault::Kind::kKill) fault::kill_now(fault::Site::kSidecarRename);
  if (rf != fault::Kind::kNone ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

void print_summary(std::FILE* out, const Report& report) {
  const Totals& t = report.aggregate;
  const double wall = report.wall_seconds;
  std::fprintf(out, "\n== profile: %s (%s, simd %s, %.2fs wall) ==\n",
               report.owner.c_str(), report.mode.c_str(),
               report.simd.empty() ? "?" : report.simd.c_str(), wall);
  std::fprintf(out, "%-12s %10s %8s %8s\n", "phase", "seconds", "% wall",
               "calls");
  for (size_t i = 0; i < kNumPhases; ++i) {
    const double secs = static_cast<double>(t.ns[i]) * 1e-9;
    const double pct = wall > 0 ? 100.0 * secs / wall : 0.0;
    std::fprintf(out, "%-12s %10.3f %7.1f%% %8llu\n", kPhaseNames[i], secs,
                 pct, static_cast<unsigned long long>(t.calls[i]));
  }
  std::fprintf(out, "counters:");
  for (size_t i = 0; i < kNumCounters; ++i)
    std::fprintf(out, " %s=%llu", kCounterNames[i],
                 static_cast<unsigned long long>(t.counts[i]));
  std::fprintf(out, "\n");

  // The top of the cost distribution is what names the next hot path.
  std::vector<const PointProfile*> by_cost;
  by_cost.reserve(report.points.size());
  for (const PointProfile& p : report.points) by_cost.push_back(&p);
  std::stable_sort(by_cost.begin(), by_cost.end(),
                   [](const PointProfile* a, const PointProfile* b) {
                     return a->wall_seconds > b->wall_seconds;
                   });
  const size_t top = std::min<size_t>(5, by_cost.size());
  if (top > 0) std::fprintf(out, "top points by wall time:\n");
  for (size_t i = 0; i < top; ++i) {
    const PointProfile& p = *by_cost[i];
    const double timing =
        static_cast<double>(p.totals.phase_ns(Phase::kTiming)) * 1e-9;
    const double compress =
        static_cast<double>(p.totals.phase_ns(Phase::kCompress)) * 1e-9;
    if (p.t1 < 0)
      std::fprintf(out, "  %-10s x %-8s %7.2fs (timing %.2fs, compress %.2fs)\n",
                   p.workload.c_str(), p.design.c_str(), p.wall_seconds, timing,
                   compress);
    else
      std::fprintf(out,
                   "  %-10s x %-8s %7.2fs (timing %.2fs, compress %.2fs, "
                   "t1=%d)\n",
                   p.workload.c_str(), p.design.c_str(), p.wall_seconds, timing,
                   compress, p.t1);
  }
}

std::string default_owner() {
  char host[256] = {0};
  if (::gethostname(host, sizeof(host) - 1) != 0) std::strcpy(host, "host");
  std::string owner = host;
  owner += '-';
  owner += std::to_string(static_cast<long>(::getpid()));
  for (char& c : owner) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) c = '-';
  }
  return owner;
}

}  // namespace prof
}  // namespace avr
