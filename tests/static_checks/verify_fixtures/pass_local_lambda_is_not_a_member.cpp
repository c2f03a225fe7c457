// verify_fixtures: a call to a local lambda is not a call to another
// class's member of the same name — must produce ZERO findings.
//
// Sender::send holds mu_ and calls its local lambda `publish`. Registry
// also has a publish(), which takes its own mutex and calls back into
// Sender. Resolving the lambda call to Registry::publish would fabricate
// Sender::mu_ -> Registry::mu_, and Registry's call back would close it
// into a cycle. The lambda is bound in send(), so the call is that local.

struct Mutex {
  void lock();
  void unlock();
};

struct MutexLock {
  explicit MutexLock(Mutex& mu);
  ~MutexLock();
};

struct Sender {
  Mutex mu_;
  int head_ = 0;
  void send(int n);
  void flush();
};

struct Registry {
  Mutex mu_;
  Sender* sender_ = nullptr;
  void publish();
};

void Sender::send(int n) {
  MutexLock lock(mu_);
  auto publish = [&] { head_ += n; };
  publish();
}

void Sender::flush() {
  MutexLock lock(mu_);
  head_ = 0;
}

void Registry::publish() {
  MutexLock lock(mu_);
  sender_->flush();  // Registry::mu_ -> Sender::mu_
}
