// Cooperative simulated process.
//
// Each process runs its body as a stackful fiber (a ucontext with its own
// mmap'd stack) on the thread that calls Kernel::run().  Control passes
// between the kernel's event loop and one body at a time by a plain context
// switch, so only one of them ever runs.  This gives application code a
// natural blocking style (plain function calls, loops, blocking receives)
// while keeping the simulation fully deterministic.
//
// Because every body of a simulation shares the kernel's OS thread, a
// thread_local buffer is shared by all of its ranks.  Such scratch is safe
// only while no call yields (advance/suspend/yield_now, or a blocking
// receive built on them) between acquiring and releasing it.  A body must
// also not yield from inside a catch handler: the C++ runtime keeps the
// handled-exception stack per OS thread, not per fiber.
//
// A process interacts with simulated time through three primitives:
//   - advance(dt): consume `dt` of local compute time,
//   - suspend():   block until another event calls wake(),
//   - yield_now(): reschedule at the same time (after already-queued events).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "des/kernel.hpp"
#include "des/time.hpp"

namespace specomp::des {

class Process {
 public:
  enum class State {
    NotStarted,   // spawn event not yet executed
    Waiting,      // waiting for a scheduled resume event
    Suspended,    // waiting for an external wake()
    Running,      // body currently has control
    Finished,     // body returned
  };

  // specomp: allow(hot-path-callable): the body callable is invoked once per process lifetime, not per event
  Process(Kernel& kernel, std::string name, std::function<void(Process&)> body,
          std::uint64_t id);
  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const noexcept { return name_; }
  std::uint64_t id() const noexcept { return id_; }
  State state() const noexcept { return state_; }
  Kernel& kernel() noexcept { return kernel_; }
  SimTime now() const noexcept { return kernel_.now(); }

  // ---- Called from inside the process body. ----

  /// Advances local time by `dt`, modelling computation of that duration.
  void advance(SimTime dt);
  /// Blocks until some event calls wake().  If a wake is already pending the
  /// call consumes it and returns without advancing time.
  void suspend();
  /// Gives other same-time events a chance to run, then resumes.
  void yield_now();

  // ---- Called from kernel events. ----

  /// Wakes a suspended process (resumes it at the current event time).  If
  /// the process is not currently suspended the wake is remembered and
  /// consumed by its next suspend().  Idempotent while pending.
  void wake();

 private:
  friend class Kernel;
  struct Fiber;

  /// Kernel-side: switch to the body until it yields back.
  void resume_from_kernel();
  /// Body-side: switch back to the kernel event loop.
  void yield_to_kernel();
  /// Saves the body's context and resumes the one that last resumed it.
  /// `finished` marks the body's final switch (its stack is never re-entered).
  void switch_to_caller(bool finished);
  /// First code run on a fresh fiber's stack.
  static void fiber_entry();

  Kernel& kernel_;
  std::string name_;
  // specomp: allow(hot-path-callable): stored body, called once at process start
  std::function<void(Process&)> body_;
  std::uint64_t id_;

  std::unique_ptr<Fiber> fiber_;  // created by the first resume

  State state_ = State::NotStarted;
  bool wake_pending_ = false;
  bool resume_scheduled_ = false;
  bool kill_requested_ = false;  // set once by ~Process
};

}  // namespace specomp::des
