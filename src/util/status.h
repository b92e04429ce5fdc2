// Minimal Status / StatusOr for recoverable errors (RocksDB-style error
// handling without exceptions).
#ifndef TD_UTIL_STATUS_H_
#define TD_UTIL_STATUS_H_

#include <string>
#include <utility>

#include "util/check.h"

namespace td {

/// Result of an operation that can fail in a recoverable way.
///
/// The library keeps error handling deliberately small: most failures in a
/// simulator are programmer errors (guarded by TD_CHECK); Status is reserved
/// for conditions a caller can meaningfully react to, such as malformed
/// experiment configuration or an infeasible topology request.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument = 1,
    kNotFound = 2,
    kFailedPrecondition = 3,
    kOutOfRange = 4,
    kInternal = 5,
  };

  Status() : code_(Code::kOk) {}

  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(Code::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(Code::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return CodeName(code_) + ": " + message_;
  }

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  static std::string CodeName(Code code) {
    switch (code) {
      case Code::kOk:
        return "OK";
      case Code::kInvalidArgument:
        return "InvalidArgument";
      case Code::kNotFound:
        return "NotFound";
      case Code::kFailedPrecondition:
        return "FailedPrecondition";
      case Code::kOutOfRange:
        return "OutOfRange";
      case Code::kInternal:
        return "Internal";
    }
    return "Unknown";
  }

  Code code_;
  std::string message_;
};

/// A value or an error. `value()` aborts if called on an error result, so
/// callers must test `ok()` first (mirrors absl::StatusOr usage).
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    TD_CHECK(!status_.ok());
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    TD_CHECK(ok());
    return value_;
  }
  T& value() & {
    TD_CHECK(ok());
    return value_;
  }
  T&& value() && {
    TD_CHECK(ok());
    return std::move(value_);
  }

 private:
  Status status_;
  T value_{};
};

}  // namespace td

#endif  // TD_UTIL_STATUS_H_
