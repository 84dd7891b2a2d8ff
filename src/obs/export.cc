#include "obs/export.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>

namespace lsi::obs {
namespace {

/// Shortest round-trip decimal rendering (to_chars), so goldens and
/// diffs stay readable: 0.5 prints as "0.5", not "0.50000000000000000".
std::string FormatDouble(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

void AppendJsonString(std::string& out, std::string_view value) {
  out.push_back('"');
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; dots and anything else
/// become underscores.
std::string SanitizePrometheusName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

}  // namespace

ExportFormat ParseExportFormat(std::string_view value) {
  std::string lower;
  lower.reserve(value.size());
  for (char c : value) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "json") return ExportFormat::kJson;
  if (lower == "prom" || lower == "prometheus") {
    return ExportFormat::kPrometheus;
  }
  return ExportFormat::kNone;
}

ExportFormat FormatFromEnv() {
  const char* env = std::getenv("LSI_METRICS");
  if (env == nullptr) return ExportFormat::kNone;
  return ParseExportFormat(env);
}

std::string ExportJson(const MetricsRegistry& metrics) {
  if (&metrics == &MetricsRegistry::Global()) {
    MirrorFaultMetrics();
    MirrorLockMetrics();
  }
  MetricsSnapshot snapshot = metrics.Snapshot();

  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": " + FormatDouble(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& histogram : snapshot.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, histogram.name);
    out += ": {\"count\": " + std::to_string(histogram.count) +
           ", \"sum\": " + FormatDouble(histogram.sum) + ", \"buckets\": [";
    for (std::size_t i = 0; i < histogram.bucket_counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"le\": ";
      out += i < histogram.bounds.size() ? FormatDouble(histogram.bounds[i])
                                         : std::string("\"+Inf\"");
      out += ", \"count\": " + std::to_string(histogram.bucket_counts[i]) +
             "}";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string ExportPrometheus(const MetricsRegistry& metrics) {
  if (&metrics == &MetricsRegistry::Global()) {
    MirrorFaultMetrics();
    MirrorLockMetrics();
  }
  MetricsSnapshot snapshot = metrics.Snapshot();

  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    std::string prom = SanitizePrometheusName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + "_total " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::string prom = SanitizePrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + FormatDouble(value) + "\n";
  }
  for (const auto& histogram : snapshot.histograms) {
    std::string prom = SanitizePrometheusName(histogram.name);
    out += "# TYPE " + prom + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < histogram.bucket_counts.size(); ++i) {
      cumulative += histogram.bucket_counts[i];
      std::string le = i < histogram.bounds.size()
                           ? FormatDouble(histogram.bounds[i])
                           : std::string("+Inf");
      out += prom + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_sum " + FormatDouble(histogram.sum) + "\n";
    out += prom + "_count " + std::to_string(histogram.count) + "\n";
  }
  return out;
}

std::string Export(ExportFormat format) {
  switch (format) {
    case ExportFormat::kJson:
      return ExportJson();
    case ExportFormat::kPrometheus:
      return ExportPrometheus();
    case ExportFormat::kNone:
      break;
  }
  return "";
}

const char* ContentTypeFor(ExportFormat format) {
  switch (format) {
    case ExportFormat::kJson:
      return "application/json; charset=utf-8";
    case ExportFormat::kPrometheus:
      return "text/plain; version=0.0.4; charset=utf-8";
    case ExportFormat::kNone:
      break;
  }
  return "text/plain; charset=utf-8";
}

bool DumpIfConfigured(std::FILE* out) {
  ExportFormat format = FormatFromEnv();
  if (format == ExportFormat::kNone) return false;
  std::string rendered = Export(format);
  return std::fputs(rendered.c_str(), out) != EOF;
}

}  // namespace lsi::obs
