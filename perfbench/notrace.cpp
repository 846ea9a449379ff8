// Tracing off: the untraced benchmark binary links this instead of
// trace.cpp, so no call into the program is wrapped.
#include "trace.hpp"

namespace perfbench::trace {

bool enabled() { return false; }
void begin_run() {}
void end_run() {}
const Report& report() {
    static const Report empty;
    return empty;
}

}  // namespace perfbench::trace
