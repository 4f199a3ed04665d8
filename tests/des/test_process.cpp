#include "des/process.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "des/kernel.hpp"

namespace specomp::des {
namespace {

TEST(Process, AdvanceMovesLocalTime) {
  Kernel kernel;
  double finish = -1.0;
  kernel.spawn("p", [&](Process& proc) {
    proc.advance(SimTime::seconds(2));
    proc.advance(SimTime::seconds(3));
    finish = proc.now().to_seconds();
  });
  kernel.run();
  EXPECT_DOUBLE_EQ(finish, 5.0);
}

TEST(Process, StartTimeRespected) {
  Kernel kernel;
  double started = -1.0;
  kernel.spawn(
      "late", [&](Process& proc) { started = proc.now().to_seconds(); },
      SimTime::seconds(7));
  kernel.run();
  EXPECT_DOUBLE_EQ(started, 7.0);
}

TEST(Process, TwoProcessesInterleaveByTime) {
  Kernel kernel;
  std::vector<std::string> order;
  kernel.spawn("a", [&](Process& proc) {
    order.push_back("a0");
    proc.advance(SimTime::seconds(2));
    order.push_back("a2");
  });
  kernel.spawn("b", [&](Process& proc) {
    order.push_back("b0");
    proc.advance(SimTime::seconds(1));
    order.push_back("b1");
    proc.advance(SimTime::seconds(2));
    order.push_back("b3");
  });
  kernel.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a0", "b0", "b1", "a2", "b3"}));
}

TEST(Process, WakeResumesSuspended) {
  Kernel kernel;
  double woken_at = -1.0;
  Process* sleeper = kernel.spawn("sleeper", [&](Process& proc) {
    proc.suspend();
    woken_at = proc.now().to_seconds();
  });
  kernel.spawn("waker", [&](Process& proc) {
    proc.advance(SimTime::seconds(4));
    sleeper->wake();
  });
  kernel.run();
  EXPECT_DOUBLE_EQ(woken_at, 4.0);
}

TEST(Process, WakePendingConsumedBySuspend) {
  Kernel kernel;
  double resumed_at = -1.0;
  Process* worker = kernel.spawn("worker", [&](Process& proc) {
    proc.advance(SimTime::seconds(5));  // wake arrives while computing
    proc.suspend();                     // must return immediately
    resumed_at = proc.now().to_seconds();
  });
  kernel.spawn("waker", [&](Process& proc) {
    proc.advance(SimTime::seconds(1));
    worker->wake();
  });
  kernel.run();
  EXPECT_DOUBLE_EQ(resumed_at, 5.0);
}

TEST(Process, YieldNowLetsQueuedEventsRun) {
  Kernel kernel;
  std::vector<int> order;
  kernel.spawn("a", [&](Process& proc) {
    order.push_back(1);
    proc.yield_now();
    order.push_back(3);
  });
  kernel.spawn("b", [&](Process&) { order.push_back(2); });
  kernel.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Process, DeadlockDetected) {
  Kernel kernel;
  kernel.spawn("stuck", [](Process& proc) { proc.suspend(); });
  EXPECT_THROW(kernel.run(), std::runtime_error);
}

TEST(Process, SuspendedProcessTornDownCleanly) {
  // A kernel destroyed while processes are unfinished must unwind every body
  // on its own stack (running destructors) without hanging.  Two endings
  // leave different states behind: a deadlock, where every survivor is
  // Suspended, and a bounded run that stops with one process Suspended, one
  // Waiting and one not yet started.  Each body or unstarted closure holds a
  // reference to `token` until it is torn down.
  for (const bool deadlock : {true, false}) {
    SCOPED_TRACE(deadlock ? "after deadlock" : "after run_until");
    const auto token = std::make_shared<int>(0);
    {
      Kernel kernel;
      std::vector<Process*> procs;
      procs.push_back(kernel.spawn("suspended", [&token](Process& proc) {
        const auto held = token;
        proc.suspend();
      }));
      procs.push_back(kernel.spawn("second", [&token, deadlock](Process& proc) {
        const auto held = token;
        if (deadlock) {
          proc.suspend();
        } else {
          proc.advance(SimTime::seconds(100));
        }
      }));
      std::vector<Process::State> expected{Process::State::Suspended,
                                           Process::State::Suspended};
      if (deadlock) {
        EXPECT_THROW(kernel.run(), std::runtime_error);
      } else {
        procs.push_back(kernel.spawn(
            "not-started", [held = token](Process&) { EXPECT_TRUE(held); },
            SimTime::seconds(50)));
        kernel.run_until(SimTime::seconds(10));
        expected = {Process::State::Suspended, Process::State::Waiting,
                    Process::State::NotStarted};
      }
      std::vector<Process::State> states;
      for (const Process* proc : procs) states.push_back(proc->state());
      EXPECT_EQ(states, expected);
      EXPECT_EQ(token.use_count(), static_cast<long>(1 + procs.size()));
    }
    EXPECT_EQ(token.use_count(), 1);
  }
}

/// Fills `depth` frames of 4 KiB each on the calling stack and yields at the
/// bottom, so the deep stack is switched out and back in.  Returns `depth`
/// if every frame still holds its fill afterwards, -1 otherwise.
int deep_frames(Process& proc, int depth) {
  volatile unsigned char frame[4096];
  const auto fill = static_cast<unsigned char>(depth);
  for (auto& byte : frame) byte = fill;
  if (depth == 1) {
    proc.advance(SimTime::seconds(1));
  } else if (deep_frames(proc, depth - 1) != depth - 1) {
    return -1;
  }
  for (const auto& byte : frame)
    if (byte != fill) return -1;
  return depth;
}

TEST(Process, BodyWithAMebibyteOfStackCompletes) {
  Kernel kernel;
  int frames = 0;
  kernel.spawn("deep", [&](Process& proc) {
    frames = deep_frames(proc, 256);  // 256 x 4 KiB = 1 MiB
  });
  kernel.spawn("other", [](Process& proc) { proc.advance(SimTime::seconds(2)); });
  const KernelStats stats = kernel.run();
  EXPECT_EQ(frames, 256);
  EXPECT_DOUBLE_EQ(stats.end_time.to_seconds(), 2.0);
}

/// Twenty processes whose advances interleave, so resumes are queued events
/// that switch between bodies rather than inline fast-forwards.
struct ManyRun {
  std::vector<int> finish_order;
  KernelStats stats;
};

ManyRun run_many() {
  ManyRun out;
  Kernel kernel;
  for (int i = 0; i < 20; ++i) {
    kernel.spawn("p" + std::to_string(i), [&out, i](Process& proc) {
      for (int round = 0; round < 50; ++round) {
        proc.advance(SimTime::seconds((i * 7 + round) % 5 + 1));
        proc.yield_now();
      }
      out.finish_order.push_back(i);
    });
  }
  out.stats = kernel.run();
  return out;
}

TEST(Process, ManyProcessesDeterministicCompletion) {
  const ManyRun reference = run_many();
  ASSERT_EQ(reference.finish_order.size(), 20u);
  // Re-running an identical setup yields the identical order, also when two
  // kernels run at once on two OS threads (each hosts its own fibers).
  ManyRun concurrent[2];
  std::thread first([&] { concurrent[0] = run_many(); });
  std::thread second([&] { concurrent[1] = run_many(); });
  first.join();
  second.join();
  for (const ManyRun& run : concurrent) {
    EXPECT_EQ(run.finish_order, reference.finish_order);
    EXPECT_EQ(run.stats.events_executed, reference.stats.events_executed);
    EXPECT_EQ(run.stats.end_time, reference.stats.end_time);
  }
}

TEST(Process, ZeroAdvanceKeepsTime) {
  Kernel kernel;
  double t = -1.0;
  kernel.spawn("p", [&](Process& proc) {
    proc.advance(SimTime::zero());
    t = proc.now().to_seconds();
  });
  kernel.run();
  EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(Process, StatesVisibleFromOutside) {
  Kernel kernel;
  Process* proc = kernel.spawn("p", [](Process& self) {
    self.advance(SimTime::seconds(1));
  });
  EXPECT_EQ(proc->state(), Process::State::NotStarted);
  kernel.run();
  EXPECT_EQ(proc->state(), Process::State::Finished);
}

}  // namespace
}  // namespace specomp::des
