// Fixture: malformed directives are findings themselves (bad-annotation);
// a bare allow() without justification does NOT silence the original rule.
#include <chrono>

double wall_probe() {
  auto a = std::chrono::steady_clock::now();  // specomp: allow(wall-clock)
  auto b = std::chrono::steady_clock::now();  // specomp: allow(not-a-rule): justified but unknown id
  return std::chrono::duration<double>(b - a).count();
}
