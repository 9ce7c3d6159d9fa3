#ifndef HALK_COMMON_STATUS_H_
#define HALK_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace halk {

/// Error category for a failed operation. Mirrors the Arrow/RocksDB idiom:
/// fallible library-boundary APIs return Status (or Result<T>) instead of
/// throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kIOError,
  kParseError,
  kInternal,
  kNotImplemented,
  kUnavailable,       // transient overload; the caller may retry later
  kDeadlineExceeded,  // the operation's deadline passed before completion
  kPartialResult,     // degraded success: an answer computed over only part
                      // of the data (e.g. a shard that missed the deadline)
};

/// Returns a human-readable name for a status code, e.g. "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

/// Outcome of an operation that can fail. Cheap to copy in the OK case.
/// `[[nodiscard]]` at class level: every expression that produces a Status
/// and drops it is a compile-time warning (an error under -Werror CI), the
/// RocksDB "no status left behind" discipline. halk_lint additionally
/// requires fallible function *declarations* to carry [[nodiscard]] so the
/// contract is visible at the API surface.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
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
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status PartialResult(std::string msg) {
    return Status(StatusCode::kPartialResult, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Modeled after arrow::Result.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value and from error Status, so `return value;` and
  /// `return Status::...;` both work inside functions returning Result<T>.
  Result(T value) : v_(std::move(value)) {}       // NOLINT(runtime/explicit)
  Result(Status status) : v_(std::move(status)) {  // NOLINT(runtime/explicit)
  }

  bool ok() const { return std::holds_alternative<T>(v_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(v_);
  }

  /// Requires ok().
  const T& value() const& { return std::get<T>(v_); }
  T& value() & { return std::get<T>(v_); }
  T&& value() && { return std::get<T>(std::move(v_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Moves the value out, or aborts with the error message if not ok().
  T ValueOrDie() &&;

 private:
  std::variant<T, Status> v_;
};

namespace internal {
[[noreturn]] void DieOnBadResult(const Status& status);
}  // namespace internal

template <typename T>
T Result<T>::ValueOrDie() && {
  if (!ok()) internal::DieOnBadResult(status());
  return std::get<T>(std::move(v_));
}

/// Propagates a non-OK Status to the caller.
#define HALK_RETURN_NOT_OK(expr)              \
  do {                                        \
    ::halk::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (0)

#define HALK_CONCAT_IMPL(a, b) a##b
#define HALK_CONCAT(a, b) HALK_CONCAT_IMPL(a, b)

/// Evaluates a Result<T> expression; on error returns the Status, otherwise
/// move-assigns the value into `lhs` (which must be declared by the caller,
/// e.g. `HALK_ASSIGN_OR_RETURN(auto x, MakeX());`).
#define HALK_ASSIGN_OR_RETURN(lhs, rexpr)                      \
  auto HALK_CONCAT(_halk_result_, __LINE__) = (rexpr);         \
  if (!HALK_CONCAT(_halk_result_, __LINE__).ok())              \
    return HALK_CONCAT(_halk_result_, __LINE__).status();      \
  lhs = std::move(HALK_CONCAT(_halk_result_, __LINE__)).value()

}  // namespace halk

#endif  // HALK_COMMON_STATUS_H_
