// oneshot<T>: one value handed from a completion callback to a thread
// blocked on it. The blocking forms of the completion-style APIs (the
// svc session calls, the registry's epoch waits, the repl commit gate)
// are thin wrappers built from it: start the op with setter() as its
// completion, then wait(). The state is shared, not on the waiter's
// stack, because the completing thread may still be inside the setter
// when the woken waiter returns and unwinds.
#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

namespace elect {

template <typename T>
class oneshot {
 public:
  oneshot() : state_(std::make_shared<state>()) {}

  /// The completion to hand out; the first call delivers the value.
  [[nodiscard]] auto setter() const {
    return [s = state_](T value) {
      const std::lock_guard<std::mutex> lock(s->mutex);
      if (s->value.has_value()) return;
      s->value.emplace(std::move(value));
      s->cv.notify_all();
    };
  }

  /// Block until the value arrives.
  T wait() const {
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait(lock, [&] { return state_->value.has_value(); });
    return *state_->value;
  }

  /// Block until the value arrives or `deadline` passes (empty then).
  std::optional<T> wait_until(
      std::chrono::steady_clock::time_point deadline) const {
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait_until(lock, deadline,
                          [&] { return state_->value.has_value(); });
    return state_->value;
  }

 private:
  struct state {
    std::mutex mutex;
    std::condition_variable cv;
    std::optional<T> value;
  };
  std::shared_ptr<state> state_;
};

}  // namespace elect
