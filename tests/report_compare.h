/// \file report_compare.h
/// \brief Shared helpers for comparing RunReports and simulator state
/// bit-for-bit across test binaries (determinism, chaos/resilience).
///
/// Header-only on purpose: the test binaries that need these (cp_tests,
/// cp_determinism_tests, cp_chaos_tests) link different library sets, and
/// a tests-utility library would drag the bench registry into all of them.

#ifndef COVERPACK_TESTS_REPORT_COMPARE_H_
#define COVERPACK_TESTS_REPORT_COMPARE_H_

#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>

#include "mpc/load_tracker.h"
#include "relation/relation.h"
#include "telemetry/run_report.h"

namespace coverpack {
namespace testutil {

inline std::string ReportJson(const telemetry::RunReport& report) {
  std::ostringstream out;
  report.ToJson().Write(out);
  return out.str();
}

/// Replaces every `"timers":{...}` subobject with `"timers":{}` — wall-clock
/// timer samples are the only report content allowed to differ between two
/// runs of the same experiment.
inline std::string MaskTimers(const std::string& json) {
  std::string out;
  const std::string key = "\"timers\":";
  size_t pos = 0;
  while (true) {
    size_t hit = json.find(key, pos);
    if (hit == std::string::npos) {
      out.append(json, pos, std::string::npos);
      break;
    }
    size_t brace = hit + key.size();
    while (brace < json.size() && json[brace] != '{') ++brace;
    int depth = 0;
    size_t end = brace;
    for (; end < json.size(); ++end) {
      if (json[end] == '{') {
        ++depth;
      } else if (json[end] == '}') {
        if (--depth == 0) {
          ++end;
          break;
        }
      }
    }
    out.append(json, pos, hit - pos);
    out += "\"timers\":{}";
    pos = end;
  }
  return out;
}

/// Removes every `"<prefix>...":<value>` member (and its adjacent comma)
/// from a report JSON string. Used to compare a fault-injected run against
/// a fault-free one: after stripping the "fault." / "recovery." ledger
/// keys, the two reports must be byte-identical.
inline std::string StripMetricsWithPrefix(const std::string& json,
                                          const std::string& prefix) {
  const std::string needle = "\"" + prefix;
  std::string out;
  size_t pos = 0;
  while (pos < json.size()) {
    size_t hit = json.find(needle, pos);
    if (hit == std::string::npos) {
      out.append(json, pos, std::string::npos);
      break;
    }
    // Swallow the pretty-printing whitespace that introduces the member, so
    // removal leaves no blank line behind.
    size_t member_start = hit;
    while (member_start > pos && (json[member_start - 1] == ' ' || json[member_start - 1] == '\n' ||
                                  json[member_start - 1] == '\t' || json[member_start - 1] == '\r')) {
      --member_start;
    }
    out.append(json, pos, member_start - pos);
    // Skip the key string (metric keys contain no escapes) and the colon.
    size_t p = hit + 1;
    while (p < json.size() && json[p] != '"') ++p;
    ++p;
    while (p < json.size() && json[p] != ':') ++p;
    ++p;
    // Skip the value: a scalar, or a balanced {...}/[...] (histograms).
    int depth = 0;
    bool in_string = false;
    for (; p < json.size(); ++p) {
      char c = json[p];
      if (in_string) {
        if (c == '\\') {
          ++p;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) break;
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
    }
    if (p < json.size() && json[p] == ',') {
      ++p;  // member had a successor: swallow the separating comma
    } else {
      // Last member of its object: drop the comma before it and keep the
      // whitespace that introduces the closing brace.
      while (p > 0 && (json[p - 1] == ' ' || json[p - 1] == '\n' || json[p - 1] == '\t' ||
                       json[p - 1] == '\r')) {
        --p;
      }
      if (!out.empty() && out.back() == ',') out.pop_back();
    }
    pos = p;
  }
  return out;
}

/// Strips the whole resilience ledger ("fault.*" and "recovery.*" keys).
inline std::string StripResilienceMetrics(const std::string& json) {
  return StripMetricsWithPrefix(StripMetricsWithPrefix(json, "fault."), "recovery.");
}

inline bool RelationsEqual(const Relation& a, const Relation& b) {
  if (!(a.attrs() == b.attrs()) || a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    auto ra = a.row(i), rb = b.row(i);
    for (size_t c = 0; c < ra.size(); ++c) {
      if (ra[c] != rb[c]) return false;
    }
  }
  return true;
}

inline bool TrackersEqual(const LoadTracker& a, const LoadTracker& b) {
  if (a.num_servers() != b.num_servers() || a.num_rounds() != b.num_rounds()) return false;
  for (uint32_t round = 0; round < a.num_rounds(); ++round) {
    for (uint32_t server = 0; server < a.num_servers(); ++server) {
      if (a.At(round, server) != b.At(round, server)) return false;
    }
  }
  return true;
}

}  // namespace testutil
}  // namespace coverpack

#endif  // COVERPACK_TESTS_REPORT_COMPARE_H_
