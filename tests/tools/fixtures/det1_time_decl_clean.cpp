// DET-1 clean fixture: a member function named time is a declaration, not
// a call to libc time().
using TimeMs = double;

struct Entry {
  TimeMs time() const { return at; }
  TimeMs at = 0.0;
};

TimeMs latest(const Entry& a, const Entry& b) {
  return a.time() > b.time() ? a.time() : b.time();
}
