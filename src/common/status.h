#ifndef GREATER_COMMON_STATUS_H_
#define GREATER_COMMON_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace greater {

/// Error categories used across the library. Mirrors the small set of
/// failure modes a tabular-synthesis pipeline can hit.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< caller passed something malformed
  kNotFound,          ///< a named column/value/key does not exist
  kAlreadyExists,     ///< uniqueness violated (e.g. duplicate column name)
  kOutOfRange,        ///< index or parameter outside its domain
  kFailedPrecondition,///< object not in the required state (e.g. unfitted model)
  kDataLoss,          ///< parse failure / corrupted input
  kResourceExhausted, ///< retry/sampling budget exceeded
  kInternal,          ///< invariant violation inside the library
  kDeadlineExceeded,  ///< a bounded wait expired (hung stage, stalled worker)
  kCancelled,         ///< the caller abandoned the operation mid-flight
};

/// Human-readable name of a StatusCode (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// Arrow-style status object. Fallible operations in this library return
/// Status (or Result<T>) instead of throwing across API boundaries.
///
/// Usage:
///   Status s = table.AppendRow(row);
///   if (!s.ok()) return s;
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status Invalid(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Returns a copy carrying a retry-after hint: the producer's estimate of
  /// how long the caller should back off before resubmitting. Attached by
  /// admission-control rejections (per-tenant quota, load shedding) so
  /// clients can pace themselves instead of hammering an overloaded
  /// server. OK statuses pass through unchanged. The hint survives
  /// WithContext (provenance frames copy the whole payload).
  Status WithRetryAfter(uint64_t retry_after_ms) const;

  /// The retry-after hint, if the producer attached one.
  std::optional<uint64_t> retry_after_ms() const { return retry_after_ms_; }

  /// Returns a copy with `context` appended to the provenance chain. Each
  /// propagation layer adds one frame (innermost first), so a failure deep
  /// inside a pipeline reports the whole path it bubbled through:
  ///
  ///   return status.WithContext("stage 'fit' (table 'fused')");
  ///
  /// OK statuses pass through unchanged.
  Status WithContext(std::string context) const;

  /// Provenance frames added by WithContext, innermost first.
  const std::vector<std::string>& context() const { return context_; }

  /// "OK" or "<CodeName>: <message>", followed by "; while <frame>" for
  /// every context frame (innermost first).
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_ &&
           context_ == other.context_ &&
           retry_after_ms_ == other.retry_after_ms_;
  }

 private:
  StatusCode code_;
  std::string message_;
  std::vector<std::string> context_;
  std::optional<uint64_t> retry_after_ms_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

namespace internal {
/// Reports `status` on stderr and aborts. Called by Result<T>::ValueOrDie
/// on an error-holding Result, where dereferencing the empty optional
/// would otherwise be undefined behaviour.
[[noreturn]] void DieOnBadResult(const Status& status);
}  // namespace internal

/// Result<T> carries either a value or a non-OK Status.
///
/// Usage:
///   Result<Table> r = Table::FromCsv(path);
///   if (!r.ok()) return r.status();
///   Table t = std::move(r).ValueOrDie();
template <typename T>
class Result {
 public:
  /// Implicit from value: allows `return value;` in Result-returning code.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit from error status: allows `return Status::Invalid(...)`.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    // A Result constructed from a Status must carry an error; an OK status
    // with no value would be unusable.
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Returns the contained value; aborts with the carried status message
  /// if this Result holds an error.
  const T& ValueOrDie() const& {
    if (!ok()) internal::DieOnBadResult(status_);
    return *value_;
  }
  T& ValueOrDie() & {
    if (!ok()) internal::DieOnBadResult(status_);
    return *value_;
  }
  T ValueOrDie() && {
    if (!ok()) internal::DieOnBadResult(status_);
    return std::move(*value_);
  }

  /// Alias matching std::expected-style spelling.
  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

  /// Returns the value, or `fallback` if this Result holds an error.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;  // OK iff value_ holds a value
  std::optional<T> value_;
};

/// Propagates a non-OK Status from an expression. For use inside functions
/// that themselves return Status or Result<T>.
#define GREATER_RETURN_NOT_OK(expr)                  \
  do {                                               \
    ::greater::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                       \
  } while (0)

/// Like GREATER_RETURN_NOT_OK, but annotates a propagated error with a
/// provenance frame (see Status::WithContext). `ctx` may be any expression
/// convertible to std::string; it is only evaluated on failure.
#define GREATER_RETURN_NOT_OK_CTX(expr, ctx)         \
  do {                                               \
    ::greater::Status _st = (expr);                  \
    if (!_st.ok()) return _st.WithContext(ctx);      \
  } while (0)

/// Evaluates a Result<T> expression, propagating errors, else binds `lhs`.
#define GREATER_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).ValueOrDie();

#define GREATER_CONCAT_INNER(a, b) a##b
#define GREATER_CONCAT(a, b) GREATER_CONCAT_INNER(a, b)

#define GREATER_ASSIGN_OR_RETURN(lhs, expr)          \
  GREATER_ASSIGN_OR_RETURN_IMPL(                     \
      GREATER_CONCAT(_greater_result_, __LINE__), lhs, expr)

/// GREATER_ASSIGN_OR_RETURN with a provenance frame on the error path.
#define GREATER_ASSIGN_OR_RETURN_CTX_IMPL(tmp, lhs, expr, ctx) \
  auto tmp = (expr);                                           \
  if (!tmp.ok()) return tmp.status().WithContext(ctx);         \
  lhs = std::move(tmp).ValueOrDie();

#define GREATER_ASSIGN_OR_RETURN_CTX(lhs, expr, ctx) \
  GREATER_ASSIGN_OR_RETURN_CTX_IMPL(                 \
      GREATER_CONCAT(_greater_result_, __LINE__), lhs, expr, ctx)

}  // namespace greater

#endif  // GREATER_COMMON_STATUS_H_
