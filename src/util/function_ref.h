// Non-owning reference to a callable: the one callback type for every
// parameter that is invoked only while the call runs — engine scans and
// adjacency visitors, engine-private walkers, storage scans, operator
// row sinks, WAL recovery visitors.
//
// A FunctionRef is two pointers (the callable's address and a typed
// trampoline), trivially copyable, and never allocates. std::function,
// by contrast, heap-allocates any closure larger than its small buffer,
// which on a per-hop visitor is harness overhead the benchmark would
// then attribute to the engine's storage layout.
//
// Lifetime rules:
//  * A callback parameter takes FunctionRef<Sig> by value. A lambda
//    passed as the argument lives until the end of the caller's full
//    expression, so it outlives the callee. The callee must not keep
//    the ref (or a copy) after it returns.
//  * No locals bound to temporaries. `FunctionRef<bool(int)> f = [&](int)
//    {...};` dangles as soon as the statement ends. Name the callable
//    (`auto f = [&](int) {...};`) and pass it, or bind a ref only to a
//    named callable or to a call argument.
//  * A callable that must outlive the call (deferred reclaim, factories,
//    query specs) is stored as std::function instead.
//
// Copying a FunctionRef copies both pointers: the copy calls the
// original callable directly, not the ref it was copied from.

#ifndef GDBMICRO_UTIL_FUNCTION_REF_H_
#define GDBMICRO_UTIL_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace gdbmicro {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT: implicit by design
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          auto& fn = *static_cast<std::remove_reference_t<F>*>(obj);
          if constexpr (std::is_void_v<R>) {
            fn(std::forward<Args>(args)...);
          } else {
            return fn(std::forward<Args>(args)...);
          }
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace gdbmicro

#endif  // GDBMICRO_UTIL_FUNCTION_REF_H_
