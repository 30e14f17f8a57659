// Result<T>: value-or-Status, the return type of fallible producers.

#ifndef GDBMICRO_UTIL_RESULT_H_
#define GDBMICRO_UTIL_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "src/util/status.h"

namespace gdbmicro {

/// Holds either a T or an error Status. Never holds an OK Status without a
/// value. Accessing value() on an error result is a programming error
/// (asserted in debug builds).
template <typename T>
class Result {
 public:
  /// Implicit from value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Success, with the value constructed in place from `args`.
  template <typename... Args>
  explicit Result(std::in_place_t, Args&&... args)
      : value_(std::in_place, std::forward<Args>(args)...) {}

  /// Implicit from error status. `status` must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok());
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const Status& status() const& { return status_; }
  Status status() && { return std::move(status_); }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or `fallback` if this result is an error.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_UTIL_RESULT_H_
