// Bit-exact text serialization of a full Prediction — the read/write seam
// the serving layer's snapshot format is built on.
//
// Mirrors write_csv's round-trip guarantee and extends it: every double is
// formatted so that reading it back reproduces the identical bit pattern
// (%.17g decimal for finite values; "inf"/"-inf"/"nan" survive too,
// parsed by core/text_parse.hpp's strtod rule rather than istream
// extraction, which rejects them).
// Category and kernel names may contain spaces and commas; names are
// written as the remainder of their line, so any single-line string
// round-trips. The format is line-oriented and self-terminating
// ("end prediction"), so multiple predictions can share one stream and a
// reader always knows where one record stops.
//
// read_prediction is a *validating* parser: sizes must be mutually
// consistent, kernel names known, parameter-vector lengths must match
// kernel_param_count, and every numeric cell must parse in full. Malformed
// input throws std::invalid_argument with the offending line — it never
// returns a Prediction that could index out of bounds downstream. This is
// what lets the snapshot loader treat "checksum passed but content
// invalid" as a skippable entry instead of undefined behaviour.
#pragma once

#include <iosfwd>
#include <string>

#include "core/predictor.hpp"

namespace estima::core {

/// Renders every field of the prediction (answer fields *and* the
/// work-accounting stats — a cached entry restores exactly as it was) as
/// one "prediction v=1" record. The bytes depend on the prediction alone:
/// numbers go through core/text_parse.hpp's to_chars emitters, so no
/// stream flag or global locale can change them. Every server-side writer
/// of the record (/v1/predict, /v1/predict_batch, campaign GETs,
/// snapshots) calls this.
std::string render_prediction(const Prediction& p);

/// Writes render_prediction(p) to `os` unformatted (os.write): the
/// stream's flags, width and locale do not touch the bytes.
void write_prediction(std::ostream& os, const Prediction& p);

/// Parses one prediction record from the stream, consuming through its
/// "end prediction" terminator. Throws std::invalid_argument on any
/// malformed or inconsistent content.
Prediction read_prediction(std::istream& is);

}  // namespace estima::core
