// verify_fixtures: a sized BufferPool buffer dropped on an early return.
//
// receive_frame takes a pooled buffer of the frame's exact size, but the
// validation early-return neither releases it nor hands it off, so the
// pool loses one large buffer per refused frame. The success path hands
// the buffer to release() and must not be flagged.
//
// DPS-VERIFY-EXPECT: protocol[buffer-pool]
// DPS-VERIFY-EXPECT: returns without releasing

struct Buffer {
  unsigned char* data();
  unsigned long size();
};

struct BufferPool {
  static BufferPool& instance();
  Buffer acquire_sized(unsigned long n);
  void release(Buffer buf);
};

bool receive_frame(unsigned long length, bool valid) {
  Buffer buf = BufferPool::instance().acquire_sized(length);
  if (!valid) {
    return false;  // BUG: buf is dropped — the pool loses a large buffer
  }
  BufferPool::instance().release(buf);
  return true;
}
