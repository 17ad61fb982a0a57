#include "mdrr/release/serialization.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "mdrr/common/string_util.h"

namespace mdrr::release {

namespace {

constexpr char kSpecHeader[] = "mdrr-release-spec v1";
constexpr char kArtifactsHeader[] = "mdrr-release-artifacts v1";
constexpr char kSnapshotHeader[] = "mdrr-streaming-snapshot v1";

void AppendDouble(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

void AppendLine(std::string& out, const std::string& key, double value) {
  out += key;
  out += ' ';
  AppendDouble(out, value);
  out += '\n';
}

void AppendLine(std::string& out, const std::string& key, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out += key;
  out += ' ';
  out += buf;
  out += '\n';
}

// Signed fields (a malformed in-memory spec may hold negatives; they
// must still round-trip so validation can reject them after a re-read).
void AppendSigned(std::string& out, const std::string& key, int64_t value) {
  out += key;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

void AppendLine(std::string& out, const std::string& key, bool value) {
  out += key;
  out += value ? " 1\n" : " 0\n";
}

void AppendLine(std::string& out, const std::string& key,
                const std::string& value) {
  out += key;
  out += ' ';
  out += value;
  out += '\n';
}

void AppendIndexList(std::string& out, const std::string& key,
                     const std::vector<size_t>& values) {
  out += key;
  for (size_t v : values) {
    out += ' ';
    out += std::to_string(v);
  }
  out += '\n';
}

void AppendDoubleList(std::string& out, const std::string& key,
                      const std::vector<double>& values) {
  out += key;
  for (double v : values) {
    out += ' ';
    AppendDouble(out, v);
  }
  out += '\n';
}

// One stripped, non-comment input line split into a key and value
// tokens.
struct SpecLine {
  std::string key;
  std::vector<std::string> tokens;  // Whitespace-separated values.
  std::string rest;                 // Raw remainder (for paths).
};

std::vector<SpecLine> TokenizeLines(const std::string& text) {
  std::vector<SpecLine> lines;
  for (std::string_view raw : Split(text, '\n')) {
    std::string_view stripped = StripWhitespace(raw);
    if (stripped.empty() || stripped.front() == '#') continue;
    SpecLine line;
    size_t space = stripped.find_first_of(" \t");
    if (space == std::string_view::npos) {
      line.key = std::string(stripped);
    } else {
      line.key = std::string(stripped.substr(0, space));
      line.rest = std::string(StripWhitespace(stripped.substr(space + 1)));
      std::istringstream stream(line.rest);
      std::string token;
      while (stream >> token) line.tokens.push_back(token);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

Status CheckHeader(const std::vector<SpecLine>& lines, const char* header) {
  if (lines.empty() ||
      lines.front().key +
              (lines.front().rest.empty() ? "" : " " + lines.front().rest) !=
          header) {
    return Status::InvalidArgument(std::string("expected header '") + header +
                                   "'");
  }
  return Status::OK();
}

StatusOr<bool> ParseBool(const SpecLine& line) {
  if (line.tokens.size() == 1) {
    if (line.tokens[0] == "1" || line.tokens[0] == "true") return true;
    if (line.tokens[0] == "0" || line.tokens[0] == "false") return false;
  }
  return Status::InvalidArgument("expected 0/1 after '" + line.key + "'");
}

StatusOr<double> ParseOneDouble(const SpecLine& line) {
  if (line.tokens.size() != 1) {
    return Status::InvalidArgument("expected one number after '" + line.key +
                                   "'");
  }
  return ParseDouble(line.tokens[0]);
}

StatusOr<uint64_t> ParseOneUint(const SpecLine& line) {
  if (line.tokens.size() != 1) {
    return Status::InvalidArgument("expected one integer after '" + line.key +
                                   "'");
  }
  MDRR_ASSIGN_OR_RETURN(int64_t value, ParseInt64(line.tokens[0]));
  if (value < 0) {
    return Status::InvalidArgument("'" + line.key + "' must be >= 0");
  }
  return static_cast<uint64_t>(value);
}

StatusOr<int64_t> ParseOneInt(const SpecLine& line) {
  if (line.tokens.size() != 1) {
    return Status::InvalidArgument("expected one integer after '" + line.key +
                                   "'");
  }
  return ParseInt64(line.tokens[0]);
}

StatusOr<std::vector<size_t>> ParseIndexList(const SpecLine& line) {
  std::vector<size_t> values;
  values.reserve(line.tokens.size());
  for (const std::string& token : line.tokens) {
    MDRR_ASSIGN_OR_RETURN(int64_t value, ParseInt64(token));
    if (value < 0) {
      return Status::InvalidArgument("negative index after '" + line.key +
                                     "'");
    }
    values.push_back(static_cast<size_t>(value));
  }
  return values;
}

StatusOr<std::vector<double>> ParseDoubleList(const SpecLine& line) {
  std::vector<double> values;
  values.reserve(line.tokens.size());
  for (const std::string& token : line.tokens) {
    MDRR_ASSIGN_OR_RETURN(double value, ParseDouble(token));
    values.push_back(value);
  }
  return values;
}

StatusOr<std::string> ParseOneToken(const SpecLine& line) {
  if (line.tokens.size() != 1) {
    return Status::InvalidArgument("expected one token after '" + line.key +
                                   "'");
  }
  return line.tokens[0];
}

Status WriteText(const std::string& text, const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  file << text;
  if (!file.good()) {
    return Status::IoError("write failure on '" + path + "'");
  }
  return Status::OK();
}

StatusOr<std::string> ReadText(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return Status::IoError("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// ReleaseSpec.
// ---------------------------------------------------------------------------

// An enum field with the parser of its spec tokens.
template <typename E, typename Parse>
struct TokenField {
  E& value;
  Parse parse;
};
template <typename E, typename Parse>
TokenField<E, Parse> Token(E& value, Parse parse) {
  return {value, parse};
}

// The spec text schema: every key with its field, in print order. Each
// field's C++ type selects its text form (PrintField / ParseField); a
// string field is a path (printed only when non-empty, parsed from the
// raw line remainder) and a list of index lists is a repeated key.
// `print` gates a key on output only; parsing accepts every key, and a
// missing key keeps its default.
template <typename Spec, typename Visit>
void ForEachSpecField(Spec& s, Visit& visit) {
  visit("dataset.source", Token(s.dataset.source, DatasetSourceFromString));
  visit("dataset.csv_path", s.dataset.csv_path);
  visit("dataset.csv_has_header", s.dataset.csv_has_header);
  visit("dataset.synthetic_records", s.dataset.synthetic_records);
  visit("dataset.synthetic_seed", s.dataset.synthetic_seed);
  visit("budget.keep_probability", s.budget.keep_probability);
  visit("budget.dependence_keep_probability",
        s.budget.dependence_keep_probability);
  visit("budget.max_total_epsilon", s.budget.max_total_epsilon);
  visit("mechanism.kind", Token(s.mechanism.kind, MechanismKindFromString));
  visit("mechanism.joint_attributes", s.mechanism.joint_attributes);
  visit("mechanism.clustering.max_combinations",
        s.mechanism.clustering.max_combinations);
  visit("mechanism.clustering.min_dependence",
        s.mechanism.clustering.min_dependence);
  visit("mechanism.dependence_source",
        Token(s.mechanism.dependence_source, DependenceSourceFromString));
  visit("mechanism.use_paper_epsilon_formula",
        s.mechanism.use_paper_epsilon_formula);
  visit("mechanism.geometric_epsilon", s.mechanism.geometric_epsilon);
  // Printed only when non-default so pre-oracle spec files keep their
  // exact committed text (validation pins the section to its defaults on
  // every path that cannot serve it, so round-trip equality holds).
  const bool oracle = !s.frequency_oracle.is_default();
  visit("frequency_oracle.backend",
        Token(s.frequency_oracle.backend, OracleBackendFromString), oracle);
  visit("frequency_oracle.epsilon", s.frequency_oracle.epsilon,
        oracle && s.frequency_oracle.epsilon != 0.0);
  visit("adjustment.enabled", s.adjustment.enabled);
  visit("adjustment.max_iterations", s.adjustment.max_iterations);
  visit("adjustment.tolerance", s.adjustment.tolerance);
  visit("adjustment.group", s.adjustment.groups);
  visit("synthetic.enabled", s.synthetic.enabled);
  visit("synthetic.records", s.synthetic.records);
  visit("evaluation.utility_report", s.evaluation.utility_report);
  visit("evaluation.sigmas", s.evaluation.sigmas);
  visit("evaluation.queries_per_sigma", s.evaluation.queries_per_sigma);
  visit("evaluation.seed", s.evaluation.seed);
  visit("streaming.enabled", s.streaming.enabled);
  visit("streaming.window_kind",
        Token(s.streaming.window_kind, WindowKindFromString));
  visit("streaming.window_size", s.streaming.window_size);
  visit("streaming.window_stride", s.streaming.window_stride);
  visit("streaming.window_epsilon", s.streaming.window_epsilon);
  visit("streaming.max_windows", s.streaming.max_windows);
  visit("execution.policy", Token(s.execution.kind, PolicyKindFromString));
  visit("execution.seed", s.execution.seed);
  visit("execution.num_threads", s.execution.num_threads);
  visit("execution.shard_size", s.execution.shard_size);
  // Absent in pre-philox spec files; the field default keeps those
  // parsing as mt19937.
  visit("execution.rng", Token(s.execution.rng, RngKindFromString));
  // Distributed-only fields, printed only under that policy so pre-
  // distributed spec files keep their exact text (validation forces the
  // fields to their defaults under every other policy, so round-trip
  // equality still holds).
  const bool distributed = s.execution.kind == PolicyKind::kDistributed;
  visit("execution.num_workers", s.execution.num_workers, distributed);
  visit("execution.listen_port", s.execution.listen_port, distributed);
  visit("execution.worker_deadline_ms", s.execution.worker_deadline_ms,
        distributed);
  visit("output.randomized_csv", s.output.randomized_csv);
  visit("output.synthetic_csv", s.output.synthetic_csv);
  visit("output.artifacts", s.output.artifacts_path);
}

template <typename T>
void PrintField(std::string& out, const std::string& key, const T& value) {
  if constexpr (std::is_same_v<T, bool> || std::is_floating_point_v<T>) {
    AppendLine(out, key, value);
  } else if constexpr (std::is_signed_v<T>) {
    AppendSigned(out, key, value);
  } else if constexpr (std::is_integral_v<T>) {
    AppendLine(out, key, static_cast<uint64_t>(value));
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!value.empty()) AppendLine(out, key, value);
  } else if constexpr (std::is_same_v<T, std::vector<size_t>>) {
    AppendIndexList(out, key, value);
  } else if constexpr (std::is_same_v<T, std::vector<double>>) {
    AppendDoubleList(out, key, value);
  } else if constexpr (std::is_same_v<T, std::vector<std::vector<size_t>>>) {
    for (const std::vector<size_t>& group : value) {
      AppendIndexList(out, key, group);
    }
  } else {
    AppendLine(out, key, std::string(ToString(value.value)));
  }
}

// Narrows a parsed integer into T, rejecting values T cannot hold.
template <typename T, typename Wide>
Status AssignInRange(const SpecLine& line, Wide value, T& field) {
  if (value < std::numeric_limits<T>::min() ||
      value > std::numeric_limits<T>::max()) {
    return Status::InvalidArgument(
        "'" + line.key + "' must be in [" +
        std::to_string(std::numeric_limits<T>::min()) + ", " +
        std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  field = static_cast<T>(value);
  return Status::OK();
}

template <typename T>
Status ParseField(const SpecLine& line, T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    MDRR_ASSIGN_OR_RETURN(field, ParseBool(line));
  } else if constexpr (std::is_floating_point_v<T>) {
    MDRR_ASSIGN_OR_RETURN(field, ParseOneDouble(line));
  } else if constexpr (std::is_signed_v<T>) {
    MDRR_ASSIGN_OR_RETURN(int64_t value, ParseOneInt(line));
    return AssignInRange(line, value, field);
  } else if constexpr (std::is_integral_v<T>) {
    MDRR_ASSIGN_OR_RETURN(uint64_t value, ParseOneUint(line));
    return AssignInRange(line, value, field);
  } else if constexpr (std::is_same_v<T, std::string>) {
    field = line.rest;
  } else if constexpr (std::is_same_v<T, std::vector<size_t>>) {
    MDRR_ASSIGN_OR_RETURN(field, ParseIndexList(line));
  } else if constexpr (std::is_same_v<T, std::vector<double>>) {
    MDRR_ASSIGN_OR_RETURN(field, ParseDoubleList(line));
  } else if constexpr (std::is_same_v<T, std::vector<std::vector<size_t>>>) {
    MDRR_ASSIGN_OR_RETURN(std::vector<size_t> group, ParseIndexList(line));
    field.push_back(std::move(group));
  } else {
    MDRR_ASSIGN_OR_RETURN(std::string token, ParseOneToken(line));
    MDRR_ASSIGN_OR_RETURN(field.value, field.parse(token));
  }
  return Status::OK();
}

struct SpecPrinter {
  template <typename T>
  void operator()(const char* key, const T& value, bool print = true) {
    if (print) PrintField(out, key, value);
  }
  std::string out;
};

// Parses `line` into the field its key names.
struct SpecLineParser {
  template <typename T>
  void operator()(const char* key, T&& field, bool /*print*/ = true) {
    if (matched || line.key != key) return;
    matched = true;
    status = ParseField(line, field);
  }
  const SpecLine& line;
  bool matched = false;
  Status status = Status::OK();
};

}  // namespace

std::string PrintReleaseSpec(const ReleaseSpec& spec) {
  SpecPrinter printer{std::string(kSpecHeader) + "\n"};
  ForEachSpecField(spec, printer);
  return printer.out;
}

StatusOr<ReleaseSpec> ParseReleaseSpec(const std::string& text) {
  std::vector<SpecLine> lines = TokenizeLines(text);
  MDRR_RETURN_IF_ERROR(CheckHeader(lines, kSpecHeader));
  ReleaseSpec spec;
  for (size_t i = 1; i < lines.size(); ++i) {
    SpecLineParser parser{lines[i]};
    ForEachSpecField(spec, parser);
    if (!parser.matched) {
      return Status::InvalidArgument("unknown spec key '" + lines[i].key +
                                     "'");
    }
    MDRR_RETURN_IF_ERROR(parser.status);
  }
  return spec;
}

Status WriteReleaseSpec(const ReleaseSpec& spec, const std::string& path) {
  return WriteText(PrintReleaseSpec(spec), path);
}

StatusOr<ReleaseSpec> ReadReleaseSpec(const std::string& path) {
  MDRR_ASSIGN_OR_RETURN(std::string text, ReadText(path));
  return ParseReleaseSpec(text);
}

// ---------------------------------------------------------------------------
// ReleaseArtifacts (summary only; datasets go to CSV side files).
// ---------------------------------------------------------------------------

std::string PrintReleaseArtifacts(const ReleaseArtifacts& artifacts) {
  std::string out;
  out += kArtifactsHeader;
  out += '\n';
  AppendLine(out, "records", artifacts.num_records);
  AppendLine(out, "release_epsilon", artifacts.release_epsilon);
  AppendLine(out, "dependence_epsilon", artifacts.dependence_epsilon);

  AppendLine(out, "marginals",
             static_cast<uint64_t>(artifacts.marginal_estimates.size()));
  for (const std::vector<double>& marginal : artifacts.marginal_estimates) {
    out += "marginal ";
    out += std::to_string(marginal.size());
    for (double p : marginal) {
      out += ' ';
      AppendDouble(out, p);
    }
    out += '\n';
  }

  AppendLine(out, "clusters",
             static_cast<uint64_t>(artifacts.clustering.size()));
  for (const std::vector<size_t>& cluster : artifacts.clustering) {
    AppendIndexList(out, "cluster", cluster);
  }

  AppendLine(out, "dependences",
             static_cast<uint64_t>(artifacts.dependences.rows()));
  for (size_t i = 0; i < artifacts.dependences.rows(); ++i) {
    out += "deprow";
    for (size_t j = 0; j < artifacts.dependences.cols(); ++j) {
      out += ' ';
      AppendDouble(out, artifacts.dependences(i, j));
    }
    out += '\n';
  }

  if (artifacts.adjustment.has_value()) {
    out += "adjustment ";
    out += std::to_string(artifacts.adjustment->iterations);
    out += artifacts.adjustment->converged ? " 1 " : " 0 ";
    AppendDouble(out, artifacts.adjustment->max_marginal_gap);
    out += '\n';
    AppendDoubleList(out, "weights", artifacts.adjustment->weights);
  }

  if (artifacts.utility.has_value()) {
    AppendDoubleList(out, "utility.marginal_tv",
                     artifacts.utility->marginal_tv);
    AppendDoubleList(out, "utility.median_relative_error",
                     artifacts.utility->median_relative_error);
    AppendLine(out, "utility.max_dependence_shift",
               artifacts.utility->max_dependence_shift);
  }

  for (const StageTiming& timing : artifacts.timings) {
    out += "timing ";
    out += timing.stage;
    out += ' ';
    AppendDouble(out, timing.seconds);
    out += '\n';
  }
  return out;
}

StatusOr<ReleaseArtifacts> ParseReleaseArtifacts(const std::string& text) {
  std::vector<SpecLine> lines = TokenizeLines(text);
  MDRR_RETURN_IF_ERROR(CheckHeader(lines, kArtifactsHeader));

  ReleaseArtifacts artifacts;
  uint64_t declared_marginals = 0;
  uint64_t declared_clusters = 0;
  uint64_t declared_dependence_rows = 0;
  std::vector<std::vector<double>> dependence_rows;
  for (size_t i = 1; i < lines.size(); ++i) {
    const SpecLine& line = lines[i];
    const std::string& key = line.key;
    if (key == "records") {
      MDRR_ASSIGN_OR_RETURN(artifacts.num_records, ParseOneDouble(line));
    } else if (key == "release_epsilon") {
      MDRR_ASSIGN_OR_RETURN(artifacts.release_epsilon, ParseOneDouble(line));
    } else if (key == "dependence_epsilon") {
      MDRR_ASSIGN_OR_RETURN(artifacts.dependence_epsilon,
                            ParseOneDouble(line));
    } else if (key == "marginals") {
      MDRR_ASSIGN_OR_RETURN(declared_marginals, ParseOneUint(line));
    } else if (key == "marginal") {
      // "marginal <len> <p...>": the declared length is an integer, not
      // a double (casting an arbitrary double would be UB for NaN or
      // out-of-range values).
      if (line.tokens.empty()) {
        return Status::InvalidArgument("malformed marginal line");
      }
      MDRR_ASSIGN_OR_RETURN(int64_t declared, ParseInt64(line.tokens[0]));
      if (declared < 0 ||
          static_cast<size_t>(declared) + 1 != line.tokens.size()) {
        return Status::InvalidArgument("malformed marginal line");
      }
      std::vector<double> marginal;
      marginal.reserve(static_cast<size_t>(declared));
      for (size_t t = 1; t < line.tokens.size(); ++t) {
        MDRR_ASSIGN_OR_RETURN(double p, ParseDouble(line.tokens[t]));
        marginal.push_back(p);
      }
      artifacts.marginal_estimates.push_back(std::move(marginal));
    } else if (key == "clusters") {
      MDRR_ASSIGN_OR_RETURN(declared_clusters, ParseOneUint(line));
    } else if (key == "cluster") {
      MDRR_ASSIGN_OR_RETURN(std::vector<size_t> cluster,
                            ParseIndexList(line));
      if (cluster.empty()) {
        return Status::InvalidArgument("empty cluster line");
      }
      artifacts.clustering.push_back(std::move(cluster));
    } else if (key == "dependences") {
      MDRR_ASSIGN_OR_RETURN(declared_dependence_rows, ParseOneUint(line));
    } else if (key == "deprow") {
      MDRR_ASSIGN_OR_RETURN(std::vector<double> row, ParseDoubleList(line));
      dependence_rows.push_back(std::move(row));
    } else if (key == "adjustment") {
      if (line.tokens.size() != 3) {
        return Status::InvalidArgument("malformed adjustment line");
      }
      AdjustmentResult adjustment;
      MDRR_ASSIGN_OR_RETURN(int64_t iterations, ParseInt64(line.tokens[0]));
      adjustment.iterations = static_cast<int>(iterations);
      if (line.tokens[1] != "0" && line.tokens[1] != "1") {
        return Status::InvalidArgument("malformed adjustment line");
      }
      adjustment.converged = line.tokens[1] == "1";
      MDRR_ASSIGN_OR_RETURN(adjustment.max_marginal_gap,
                            ParseDouble(line.tokens[2]));
      if (artifacts.adjustment.has_value()) {
        adjustment.weights = std::move(artifacts.adjustment->weights);
      }
      artifacts.adjustment = std::move(adjustment);
    } else if (key == "weights") {
      if (!artifacts.adjustment.has_value()) {
        artifacts.adjustment.emplace();
      }
      MDRR_ASSIGN_OR_RETURN(artifacts.adjustment->weights,
                            ParseDoubleList(line));
    } else if (key == "utility.marginal_tv") {
      if (!artifacts.utility.has_value()) artifacts.utility.emplace();
      MDRR_ASSIGN_OR_RETURN(artifacts.utility->marginal_tv,
                            ParseDoubleList(line));
    } else if (key == "utility.median_relative_error") {
      if (!artifacts.utility.has_value()) artifacts.utility.emplace();
      MDRR_ASSIGN_OR_RETURN(artifacts.utility->median_relative_error,
                            ParseDoubleList(line));
    } else if (key == "utility.max_dependence_shift") {
      if (!artifacts.utility.has_value()) artifacts.utility.emplace();
      MDRR_ASSIGN_OR_RETURN(artifacts.utility->max_dependence_shift,
                            ParseOneDouble(line));
    } else if (key == "timing") {
      if (line.tokens.size() != 2) {
        return Status::InvalidArgument("malformed timing line");
      }
      StageTiming timing;
      timing.stage = line.tokens[0];
      MDRR_ASSIGN_OR_RETURN(timing.seconds, ParseDouble(line.tokens[1]));
      artifacts.timings.push_back(std::move(timing));
    } else {
      return Status::InvalidArgument("unknown artifacts key '" + key + "'");
    }
  }

  if (artifacts.marginal_estimates.size() != declared_marginals) {
    return Status::InvalidArgument("marginal count mismatch");
  }
  if (artifacts.clustering.size() != declared_clusters) {
    return Status::InvalidArgument("cluster count mismatch");
  }
  if (dependence_rows.size() != declared_dependence_rows) {
    return Status::InvalidArgument("dependence row count mismatch");
  }
  if (!dependence_rows.empty()) {
    artifacts.dependences =
        linalg::Matrix(dependence_rows.size(), dependence_rows.size());
    for (size_t i = 0; i < dependence_rows.size(); ++i) {
      if (dependence_rows[i].size() != dependence_rows.size()) {
        return Status::InvalidArgument("dependence matrix is not square");
      }
      for (size_t j = 0; j < dependence_rows[i].size(); ++j) {
        artifacts.dependences(i, j) = dependence_rows[i][j];
      }
    }
  }
  return artifacts;
}

Status WriteReleaseArtifacts(const ReleaseArtifacts& artifacts,
                             const std::string& path) {
  return WriteText(PrintReleaseArtifacts(artifacts), path);
}

StatusOr<ReleaseArtifacts> ReadReleaseArtifacts(const std::string& path) {
  MDRR_ASSIGN_OR_RETURN(std::string text, ReadText(path));
  return ParseReleaseArtifacts(text);
}


// ---------------------------------------------------------------------------
// StreamingSnapshot.
// ---------------------------------------------------------------------------

std::string PrintStreamingSnapshot(const StreamingSnapshot& snapshot) {
  std::string out;
  out += kSnapshotHeader;
  out += '\n';

  AppendLine(out, "next_sequence", snapshot.next_sequence);
  AppendLine(out, "next_window", snapshot.next_window);
  AppendLine(out, "epsilon_spent", snapshot.epsilon_spent);
  AppendDoubleList(out, "window_epsilons", snapshot.window_epsilons);
  AppendIndexList(out, "cardinalities", snapshot.cardinalities);

  // "bucket <index> <reports> <counts...>": counts stay signed so any
  // in-memory snapshot round-trips and Resume gets to reject it.
  for (const StreamingSnapshot::BucketCounts& bucket : snapshot.buckets) {
    out += "bucket ";
    out += std::to_string(bucket.bucket);
    out += ' ';
    out += std::to_string(bucket.num_reports);
    for (int64_t count : bucket.counts) {
      out += ' ';
      out += std::to_string(count);
    }
    out += '\n';
  }
  return out;
}

StatusOr<StreamingSnapshot> ParseStreamingSnapshot(const std::string& text) {
  std::vector<SpecLine> lines = TokenizeLines(text);
  MDRR_RETURN_IF_ERROR(CheckHeader(lines, kSnapshotHeader));

  StreamingSnapshot snapshot;
  for (size_t i = 1; i < lines.size(); ++i) {
    const SpecLine& line = lines[i];
    const std::string& key = line.key;
    if (key == "next_sequence") {
      MDRR_ASSIGN_OR_RETURN(snapshot.next_sequence, ParseOneUint(line));
    } else if (key == "next_window") {
      MDRR_ASSIGN_OR_RETURN(snapshot.next_window, ParseOneUint(line));
    } else if (key == "epsilon_spent") {
      MDRR_ASSIGN_OR_RETURN(snapshot.epsilon_spent, ParseOneDouble(line));
    } else if (key == "window_epsilons") {
      MDRR_ASSIGN_OR_RETURN(snapshot.window_epsilons, ParseDoubleList(line));
    } else if (key == "cardinalities") {
      MDRR_ASSIGN_OR_RETURN(snapshot.cardinalities, ParseIndexList(line));
    } else if (key == "bucket") {
      if (line.tokens.size() < 2) {
        return Status::InvalidArgument("malformed bucket line");
      }
      StreamingSnapshot::BucketCounts bucket;
      MDRR_ASSIGN_OR_RETURN(int64_t index, ParseInt64(line.tokens[0]));
      MDRR_ASSIGN_OR_RETURN(int64_t reports, ParseInt64(line.tokens[1]));
      if (index < 0 || reports < 0) {
        return Status::InvalidArgument("malformed bucket line");
      }
      bucket.bucket = static_cast<uint64_t>(index);
      bucket.num_reports = static_cast<uint64_t>(reports);
      bucket.counts.reserve(line.tokens.size() - 2);
      for (size_t t = 2; t < line.tokens.size(); ++t) {
        MDRR_ASSIGN_OR_RETURN(int64_t count, ParseInt64(line.tokens[t]));
        bucket.counts.push_back(count);
      }
      snapshot.buckets.push_back(std::move(bucket));
    } else {
      return Status::InvalidArgument("unknown snapshot key '" + key + "'");
    }
  }
  return snapshot;
}

Status WriteStreamingSnapshot(const StreamingSnapshot& snapshot,
                              const std::string& path) {
  return WriteText(PrintStreamingSnapshot(snapshot), path);
}

StatusOr<StreamingSnapshot> ReadStreamingSnapshot(const std::string& path) {
  MDRR_ASSIGN_OR_RETURN(std::string text, ReadText(path));
  return ParseStreamingSnapshot(text);
}

// ---------------------------------------------------------------------------
// Window transcripts.
// ---------------------------------------------------------------------------

std::string PrintStreamWindows(const std::vector<StreamWindow>& windows) {
  std::string out;
  for (const StreamWindow& window : windows) {
    out += "window ";
    out += std::to_string(window.index);
    out += ' ';
    out += std::to_string(window.begin_sequence);
    out += ' ';
    out += std::to_string(window.end_sequence);
    out += ' ';
    out += std::to_string(window.num_reports);
    out += window.released ? " released " : " suppressed ";
    AppendDouble(out, window.epsilon);
    out += '\n';
    if (!window.released) continue;
    for (const std::vector<double>& marginal :
         window.artifacts.marginal_estimates) {
      out += "marginal ";
      out += std::to_string(marginal.size());
      for (double p : marginal) {
        out += ' ';
        AppendDouble(out, p);
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace mdrr::release
