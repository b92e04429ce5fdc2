// Prints tests/golden/engines.txt: a header naming the commit it was built
// from, then one rendered line per golden cell (tests/golden_engines.h).
//
//   ./golden_dump > ../tests/golden/engines.txt
//
// core_test compares the live engines against the committed file; rerun
// this only when a change is meant to alter the simulation's output.
#include <cstdio>

#include "golden_engines.h"

int main() {
  std::printf(
      "# Engine golden cells (tests/golden_engines.h), one line per cell.\n"
      "# Generated by golden_dump at git %s.\n",
      TD_GIT_SHA);
  for (const td::golden::Cell& cell : td::golden::Cells()) {
    std::printf("%s\n", td::golden::Render(cell).c_str());
  }
  return 0;
}
