#ifndef LSI_OBS_EXPORT_H_
#define LSI_OBS_EXPORT_H_

#include <cstdio>
#include <string>

#include "obs/metrics.h"

namespace lsi::obs {

/// Wire formats the registry can be rendered to.
enum class ExportFormat {
  kNone,
  kJson,
  kPrometheus,
};

/// Parses "json" / "prom" / "prometheus" (case-insensitive); anything
/// else — including "off" — maps to kNone.
ExportFormat ParseExportFormat(std::string_view value);

/// Reads the LSI_METRICS environment variable ("json" | "prom"); kNone
/// when unset or unrecognized.
ExportFormat FormatFromEnv();

/// Renders the metrics as one JSON document:
///   {
///     "counters":   {"name": 42, ...},
///     "gauges":     {"name": 1.5, ...},
///     "histograms": {"name": {"count": n, "sum": s,
///                             "buckets": [{"le": 1, "count": 2}, ...]}}
///   }
/// The document is stable (keys sorted) so dumps diff cleanly.
std::string ExportJson(
    const MetricsRegistry& metrics = MetricsRegistry::Global());

/// Renders the metrics in the Prometheus text exposition format. Dotted
/// names become underscore-separated.
std::string ExportPrometheus(
    const MetricsRegistry& metrics = MetricsRegistry::Global());

/// Renders the global registry in `format` (empty string for kNone).
std::string Export(ExportFormat format);

/// HTTP Content-Type for a rendered export: application/json for kJson,
/// the Prometheus text exposition type for kPrometheus ("text/plain;
/// version=0.0.4; charset=utf-8" — scrapers key on it), text/plain
/// otherwise. Used by the lsi::serve /metrics endpoint.
const char* ContentTypeFor(ExportFormat format);

/// Writes the global registry to `out` in the format selected by
/// LSI_METRICS; a no-op when the variable is unset. Returns true when
/// something was written successfully, false when the format is unset or
/// the write failed.
bool DumpIfConfigured(std::FILE* out);

}  // namespace lsi::obs

#endif  // LSI_OBS_EXPORT_H_
