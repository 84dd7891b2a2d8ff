#ifndef LSI_SERVE_RETRY_H_
#define LSI_SERVE_RETRY_H_

#include <cstdint>
#include <string_view>

#include "common/rng.h"

namespace lsi::serve {

/// Parses an HTTP `Retry-After` header value in its delta-seconds form
/// (the only form the lsi server emits) into milliseconds. Returns -1
/// for anything else — the HTTP-date form, trailing garbage, negative
/// or non-numeric values — so callers fall back to their default
/// backoff base instead of honoring a bogus hint. Values above one day
/// clamp to one day. The shard router's fetches read it and its breaker
/// re-probe honors it.
long ParseRetryAfterMs(std::string_view value);

/// Parses an `X-Lsi-Deadline-Ms` header value: a non-negative integer
/// millisecond budget, -1 on garbage. Same strictness as
/// ParseRetryAfterMs; values above one hour clamp to one hour so a
/// wild client cannot extend the server's own deadline anyway.
long ParseDeadlineMs(std::string_view value);

/// Backoff before retrying a 503: the server's Retry-After hint (or
/// 10 ms without one) doubled per consecutive rejection, capped at 2 s,
/// scaled by a uniform [0.5, 1.5) jitter so retriers spread back out.
/// `retry_after_ms < 0` means "no hint" (ParseRetryAfterMs's failure
/// value feeds straight in).
std::uint64_t BackoffMs(long retry_after_ms, std::uint32_t consecutive,
                        Rng& rng);

}  // namespace lsi::serve

#endif  // LSI_SERVE_RETRY_H_
