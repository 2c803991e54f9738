// DET-1 firing fixture: libc time() calls, bare and std-qualified.
#include <ctime>

long stamp() {
  const long bare = static_cast<long>(time(nullptr));
  return bare + static_cast<long>(std::time(nullptr));
}

long later() { return time(nullptr); }
