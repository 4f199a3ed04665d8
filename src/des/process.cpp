#include "des/process.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <system_error>
#include <utility>

#include "support/contracts.hpp"
#include "support/log.hpp"

// Sanitizers must be told about every stack switch: ASan to track which
// stack is live (and to unwind a throw on a fiber stack), TSan to keep a
// per-fiber shadow state.  Selected by the compiler's own sanitizer macros.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace specomp::des {

namespace {

/// Private exception used to unwind a process body when its simulation is
/// torn down before the body returns.  Deliberately not derived from
/// std::exception so well-behaved `catch (const std::exception&)` handlers in
/// application code do not swallow it.
struct ProcessKilled {};

/// Usable stack per process: the size of a default thread stack, so a body
/// keeps the depth it would have as a thread.  The mapping is MAP_NORESERVE,
/// so only the pages a body touches count in RSS.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;

/// The process whose fiber is being entered for the first time.  makecontext
/// passes only int arguments, so the entry function reads its Process from
/// here: set just before the first switch into a fiber on this thread and
/// read once on entry, before anything else can switch.
thread_local Process* t_entering = nullptr;

}  // namespace

struct Process::Fiber {
  Fiber() {
    const auto guard = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    mapping_bytes = guard + kStackBytes;
    mapping = mmap(nullptr, mapping_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    if (mapping == MAP_FAILED)
      throw std::system_error(errno, std::generic_category(), "fiber stack");
    // The stack grows down: the guard page below it turns an overflow into
    // a fault instead of silent corruption of the neighbouring mapping.
    if (mprotect(mapping, guard, PROT_NONE) != 0) {
      const int err = errno;
      munmap(mapping, mapping_bytes);
      throw std::system_error(err, std::generic_category(), "fiber guard");
    }
    stack = static_cast<char*>(mapping) + guard;
    getcontext(&body);
    body.uc_stack.ss_sp = stack;
    body.uc_stack.ss_size = kStackBytes;
    body.uc_link = nullptr;  // fiber_entry never returns
    makecontext(&body, &Process::fiber_entry, 0);
#if defined(__SANITIZE_THREAD__)
    tsan_body = __tsan_create_fiber(0);
#endif
  }
  ~Fiber() {
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsan_body);
#endif
    munmap(mapping, mapping_bytes);
  }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  ucontext_t body{};    // the body, while switched out
  ucontext_t caller{};  // the context that last resumed the body
  void* mapping = nullptr;
  std::size_t mapping_bytes = 0;
  void* stack = nullptr;  // lowest usable byte, just above the guard page
#if defined(__SANITIZE_ADDRESS__)
  const void* caller_stack = nullptr;  // reported by ASan on each switch in
  std::size_t caller_stack_bytes = 0;
#endif
#if defined(__SANITIZE_THREAD__)
  void* tsan_body = nullptr;
  void* tsan_caller = nullptr;
#endif
};

Process::Process(Kernel& kernel, std::string name,
                 std::function<void(Process&)> body, std::uint64_t id)
    : kernel_(kernel), name_(std::move(name)), body_(std::move(body)), id_(id) {}

Process::~Process() {
  if (fiber_ != nullptr && state_ != State::Finished) {
    // Resume the body one final time with the kill flag set: its pending
    // yield throws ProcessKilled, which unwinds the body on its own stack.
    kill_requested_ = true;
    resume_from_kernel();
  }
}

void Process::advance(SimTime dt) {
  SPEC_EXPECTS(state_ == State::Running);
  SPEC_EXPECTS(dt >= SimTime::zero());
  // Fast path: if no pending event precedes our resume time, the kernel
  // advances the clock inline and we keep running — no resume event, no
  // round trip through the kernel's event loop.  Ordering is unchanged: the
  // skipped event would have been the very next one popped.
  if (kernel_.try_fast_forward(kernel_.now() + dt)) return;
  resume_scheduled_ = true;
  kernel_.schedule_in(dt, [this] {
    resume_scheduled_ = false;
    resume_from_kernel();
  });
  state_ = State::Waiting;
  yield_to_kernel();
  state_ = State::Running;
}

void Process::suspend() {
  SPEC_EXPECTS(state_ == State::Running);
  if (wake_pending_) {
    wake_pending_ = false;
    return;
  }
  state_ = State::Suspended;
  yield_to_kernel();
  state_ = State::Running;
}

void Process::yield_now() { advance(SimTime::zero()); }

void Process::wake() {
  switch (state_) {
    case State::Suspended:
      if (!resume_scheduled_) {
        resume_scheduled_ = true;
        kernel_.schedule_in(SimTime::zero(), [this] {
          resume_scheduled_ = false;
          resume_from_kernel();
        });
      }
      break;
    case State::Running:
      // A process cannot wake itself mid-run; remember the wake so the next
      // suspend() returns immediately (level-triggered semantics).
      [[fallthrough]];
    case State::Waiting:
    case State::NotStarted:
      wake_pending_ = true;
      break;
    case State::Finished:
      break;  // late wake after completion is harmless
  }
}

void Process::resume_from_kernel() {
  if (state_ == State::Finished) return;
  if (fiber_ == nullptr) {
    fiber_ = std::make_unique<Fiber>();
    t_entering = this;
  }
  Fiber& f = *fiber_;
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, f.stack, kStackBytes);
#endif
#if defined(__SANITIZE_THREAD__)
  f.tsan_caller = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(f.tsan_body, 0);
#endif
  swapcontext(&f.caller, &f.body);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void Process::yield_to_kernel() {
  switch_to_caller(/*finished=*/false);
  if (kill_requested_) throw ProcessKilled{};
}

void Process::switch_to_caller([[maybe_unused]] bool finished) {
  Fiber& f = *fiber_;
#if defined(__SANITIZE_ADDRESS__)
  // A null save slot on the final switch lets ASan free the fiber's fake
  // stack: this stack is never entered again.
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(finished ? nullptr : &fake_stack,
                                 f.caller_stack, f.caller_stack_bytes);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(f.tsan_caller, 0);
#endif
  swapcontext(&f.body, &f.caller);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, &f.caller_stack,
                                  &f.caller_stack_bytes);
#endif
}

void Process::fiber_entry() {
  Process& self = *std::exchange(t_entering, nullptr);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &self.fiber_->caller_stack,
                                  &self.fiber_->caller_stack_bytes);
#endif
  self.state_ = State::Running;
  try {
    self.body_(self);
  } catch (const ProcessKilled&) {
    // Torn down by ~Process; fall through to the final switch below.
  } catch (...) {
    SPEC_LOG_ERROR << "process '" << self.name_
                   << "' terminated with an uncaught exception";
  }
  self.state_ = State::Finished;
  // Never resumed: resume_from_kernel skips finished processes.
  self.switch_to_caller(/*finished=*/true);
}

}  // namespace specomp::des
